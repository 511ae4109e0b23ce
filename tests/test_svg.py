import hashlib
import xml.etree.ElementTree as ET

import pytest

from musicking_lab.svg import heatmap, histogram_chart, line_chart


def assert_valid_svg(text: str):
    root = ET.fromstring(text)
    assert root.tag.endswith("svg")


class TestLineChart:
    def test_valid_and_deterministic(self):
        series = {"a": [1.0, 2.0, None, 4.0], "b": [4.0, 3.0, 2.0, 1.0]}
        out = line_chart(series, title="demo")
        assert_valid_svg(out)
        assert out == line_chart(series, title="demo")

    def test_null_breaks_polyline(self):
        out = line_chart({"a": [0.0, 1.0, None, 1.0, 0.0]})
        assert out.count("<polyline") == 2

    def test_empty_series(self):
        assert_valid_svg(line_chart({"a": []}))

    @pytest.mark.filterwarnings("error")
    def test_span_beyond_the_largest_double(self):
        out = line_chart({"a": [-1.7e308, 0.0, 1.7e308]})
        assert 'points="40.00,200.00 360.00,120.00 680.00,40.00"' in out


class TestHistogramChart:
    def test_valid(self):
        out = histogram_chart([(0.0, 1.0, 3), (1.0, 2.0, 5)], title="h")
        assert_valid_svg(out)
        assert out.count("<rect") == 1 + 2  # background + two bars

    def test_empty(self):
        assert_valid_svg(histogram_chart([]))


class TestHeatmap:
    def test_valid_with_none_cells(self):
        out = heatmap([[0.0, 1.0], [None, 0.5]], title="m")
        assert_valid_svg(out)
        assert "#cccccc" in out  # the None cell

    def test_cell_count(self):
        out = heatmap([[1, 2, 3], [4, 5, 6]])
        assert out.count("<rect") == 1 + 6

    @pytest.mark.filterwarnings("error")
    def test_span_beyond_the_largest_double(self):
        out = heatmap([[-1.7e308, 1.7e308]])
        assert 'x="40.00" y="40.00" width="200.00" height="280.00" fill="#ffffff"' in out
        assert 'x="240.00" y="40.00" width="200.00" height="280.00" fill="#ff0000"' in out


# Each chart's bytes, pinned by sha256: the reports stay diffable only while
# a refactor of the drawing code leaves every byte as it was.
CHART_CASES = {
    "line-empty-mapping": lambda: line_chart({}),
    "line-empty-series": lambda: line_chart({"a": []}, title="empty"),
    "line-one-point": lambda: line_chart({"a": [1.0]}),
    "line-constant": lambda: line_chart({"a": [2.0, 2.0, 2.0]}),
    "line-broken-by-none": lambda: line_chart(
        {"a": [0.0, 1.0, None, 1.0, 0.0], "b": [4.0, None, None, 3.0, 2.0]}, title="gaps"),
    "line-more-series-than-colors": lambda: line_chart(
        {f"s{i}": [float(i), float(i * i), -1.5] for i in range(7)}, title="seven"),
    "line-custom-size": lambda: line_chart({"a": [0.1, 0.7, 0.3]}, width=333.0, height=101.5),
    "histogram-empty": lambda: histogram_chart([]),
    "histogram-zero-counts": lambda: histogram_chart([(0.0, 1.0, 0), (1.0, 2.0, 0)]),
    "histogram-titled": lambda: histogram_chart(
        [(0.0, 1.0, 3), (1.0, 2.0, 5), (2.0, 3.0, 1)], title="h"),
    "histogram-custom-size": lambda: histogram_chart([(0.0, 0.5, 7)], width=99.0, height=77.0),
    "heatmap-empty": lambda: heatmap([]),
    "heatmap-empty-row": lambda: heatmap([[]], title="no columns"),
    "heatmap-constant": lambda: heatmap([[3, 3], [3, 3]]),
    "heatmap-none-cell": lambda: heatmap([[0.0, 1.0], [None, 0.5]], title="m"),
    "heatmap-all-none": lambda: heatmap([[None, None]]),
    "heatmap-correlation": lambda: heatmap(
        [[1.0, -0.25, 0.5], [-0.25, 1.0, None], [0.5, None, 1.0]], title="EEG",
        width=300.0, height=200.0),
}

CHART_DIGESTS = {
    "heatmap-all-none":
        "f014d1578c9ac9d8bd89658e3b364ca9fc802f87e34ccf920562347498d5d392",
    "heatmap-constant":
        "7fe72cfdb3d62228c7875ab4fe40dad059b184e0bbed481df50e3112867d8d54",
    "heatmap-correlation":
        "328a3c21ec0c05b621ac5f614467664edde38cb63037016eafe9d7adac6d8a14",
    "heatmap-empty":
        "bb34913d7b63efe9b3da845f1d98952a318d3deb984e86b7ce7e9a396fcade5c",
    "heatmap-empty-row":
        "e1b33eafc042a9f64ec1707b58da513adaa0883456a563d97240bba398fbb23e",
    "heatmap-none-cell":
        "ac9419e9b0f3aa1cf87480eb6f8d5d12aef1092cdf449f5dc00925755c96bf89",
    "histogram-custom-size":
        "c90d71058239164e2f2815b4dd1b968f875ad7b4242d1b962ca2ca7d5f7a9e0f",
    "histogram-empty":
        "ee92e655d8d39e1de38ff88c0831bc6815c28006b0e0f2f756791ca0ce3dea65",
    "histogram-titled":
        "cb067a422e04be589364da6af3a577693837db830923ac7a6aac6e3ea6e29681",
    "histogram-zero-counts":
        "f32962fea270ab98075a8797b3c2f9b790032c16a4418f443b286a94571b0d3e",
    "line-broken-by-none":
        "3457345355233f4d26e5df964346862e5a6246504577a57edd7076e0828e02c8",
    "line-constant":
        "a4ac91c30abbc97322697e067e3a3bf90386c449f8dc84240e5288740d956f34",
    "line-custom-size":
        "2a91b65637c8077ecb255ca2c968a6e7f225e51fa3a8b86c0613f79c2454b7ab",
    "line-empty-mapping":
        "a87ad466fcb1a8dd75ee3e96b20b1f86255e857f2a7f233898dd8287635c22f7",
    "line-empty-series":
        "07635382edd29a86e6678e0a105b550e12f0b1e6afa734392fc0d4591f945c26",
    "line-more-series-than-colors":
        "1f151edabae6531f68f797dc8d403ab79d76b433f13bece3dcaf1ae8795a6d5e",
    "line-one-point":
        "a87ad466fcb1a8dd75ee3e96b20b1f86255e857f2a7f233898dd8287635c22f7",
}


@pytest.mark.parametrize("case", sorted(CHART_CASES))
def test_chart_bytes_are_pinned(case):
    text = CHART_CASES[case]()
    assert_valid_svg(text)
    assert hashlib.sha256(text.encode()).hexdigest() == CHART_DIGESTS[case]
