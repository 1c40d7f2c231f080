"""Seed derivation and generator construction."""
import numpy as np

from pathmin.rng import derive_seed, make_rng


def test_same_seed_same_stream():
    a = make_rng(12)
    b = make_rng(12)
    assert np.array_equal(a.standard_normal(8), b.standard_normal(8))


def test_different_seeds_differ():
    a = make_rng(12).standard_normal(8)
    b = make_rng(13).standard_normal(8)
    assert not np.array_equal(a, b)


def test_substreams_are_independent_addresses():
    root = 7
    s1 = derive_seed(root, 0)
    s2 = derive_seed(root, 1)
    s12 = derive_seed(root, 0, 1)
    assert s1 != s2
    assert s12 not in (s1, s2)
    assert derive_seed(root, 0) == s1
    assert isinstance(s1, int)


def test_make_rng_stream_is_pinned():
    # every fixed-seed result in the package rests on these bits
    assert make_rng(7).standard_normal(4).tolist() == [
        -1.4035643350339762, 0.8484195143593849, 1.3086802652913172, -1.2232638292156024]
    assert make_rng(7).random(3).tolist() == [
        0.46881748695593284, 0.42614583623918467, 0.3629817008336008]
