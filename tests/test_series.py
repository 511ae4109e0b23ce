import math

import numpy as np

from musicking_lab._series import runs


class TestRuns:
    def test_empty_array_has_no_runs(self):
        starts, ends = runs(np.array([]))
        assert starts.tolist() == [] and ends.tolist() == []

    def test_one_element_is_one_run(self):
        starts, ends = runs(np.array([3.0]))
        assert starts.tolist() == [0] and ends.tolist() == [1]

    def test_each_nan_is_a_run_of_its_own(self):
        starts, ends = runs(np.array([1.0, math.nan, math.nan, 1.0]))
        assert starts.tolist() == [0, 1, 2, 3] and ends.tolist() == [1, 2, 3, 4]

    def test_signed_zeros_are_one_run(self):
        starts, ends = runs(np.array([-0.0, 0.0, 2.0, 2.0]))
        assert starts.tolist() == [0, 2] and ends.tolist() == [2, 4]

    def test_runs_cover_the_array(self):
        starts, ends = runs(np.array([True, True, False, True]))
        assert starts.tolist() == [0, 2, 3] and ends.tolist() == [2, 3, 4]
