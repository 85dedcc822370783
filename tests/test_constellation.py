import numpy as np
import pytest

from demapsim.constellation import gray_code

from oracles import class_indices

# Binary-reflected Gray sequence for 3 bits, regression oracle for the
# algorithmic generation (i XOR i>>1).
GRAY_LABELS = ["000", "001", "011", "010", "110", "111", "101", "100"]


class TestGeometry:
    def test_scale_factor(self, c):
        # 21 d^2 = 0.5 solved by hand
        assert c.d == pytest.approx(0.1543033499, abs=1e-10)
        assert abs(21.0 * c.d**2 - 0.5) < 1e-15

    def test_points_are_odd_multiples(self, c):
        expected = c.d * np.array([-7, -5, -3, -1, 1, 3, 5, 7], dtype=float)
        np.testing.assert_allclose(c.points, expected, rtol=0, atol=1e-15)
        assert np.all(np.diff(c.points) > 0)

    def test_mean_square_energy(self, c):
        assert abs(np.mean(c.points**2) - 0.5) < 1e-12

    def test_points_sum_to_zero(self, c):
        assert abs(c.points.sum()) < 1e-15


class TestLabels:
    def test_gray_code_sequence(self):
        assert [format(g, "03b") for g in gray_code(3)] == GRAY_LABELS

    def test_labels_in_point_order(self, c):
        got = ["".join(str(b) for b in lab) for lab in c.labels]
        assert got == GRAY_LABELS

    def test_adjacent_labels_differ_in_one_bit(self, c):
        for i in range(7):
            assert int(np.sum(c.labels[i] != c.labels[i + 1])) == 1

    def test_every_word_appears_once(self, c):
        words = {tuple(lab) for lab in c.labels}
        assert len(words) == 8

    def test_mirror_symmetry(self, c):
        # bit 1 flips under point negation, bits 2 and 3 are even
        for i in range(8):
            j = 7 - i
            assert c.labels[i, 0] != c.labels[j, 0]
            assert c.labels[i, 1] == c.labels[j, 1]
            assert c.labels[i, 2] == c.labels[j, 2]


class TestMapping:
    def test_all_zero_word_is_lowest_point(self, c):
        word = (c.labels == (0, 0, 0)).all(axis=1)
        np.testing.assert_allclose(c.points[word], [-7 * c.d], rtol=0, atol=1e-15)

    def test_msb_only_word_is_highest_point(self, c):
        word = (c.labels == (1, 0, 0)).all(axis=1)
        np.testing.assert_allclose(c.points[word], [7 * c.d], rtol=0, atol=1e-15)

    def test_round_trip_all_words(self, c):
        for i in range(8):
            assert np.flatnonzero((c.labels == c.labels[i]).all(axis=1)).tolist() == [i]


class TestIndexSets:
    """The per-bit class points that the reference demappers read."""

    def test_msb_zero_is_negative_half(self, c):
        np.testing.assert_array_equal(c.class_points[0][0], c.points[:4])

    def test_bit2_one_is_middle(self, c):
        np.testing.assert_array_equal(c.class_points[1][1], c.points[2:6])

    def test_partition_for_every_bit(self, c):
        for k in (1, 2, 3):
            p0, p1 = c.class_points[k - 1]
            assert p0.size == p1.size == 4
            np.testing.assert_array_equal(np.sort(np.concatenate([p0, p1])), c.points)

    def test_cached_class_points_match_index_sets(self, c):
        for k in (1, 2, 3):
            for b in (0, 1):
                cached = c.class_points[k - 1][b]
                np.testing.assert_array_equal(cached, c.points[class_indices(k, b, c)])
                assert not cached.flags.writeable
