import pytest

from nagumo_atlas import numtheory


def test_mobius_known_values():
    assert numtheory.mobius(1) == 1
    assert numtheory.mobius(4) == 0
    assert numtheory.mobius(6) == 1
    assert numtheory.mobius(2) == -1
    assert numtheory.mobius(30) == -1
    assert numtheory.mobius(12) == 0


def test_mobius_range_of_values():
    assert all(numtheory.mobius(n) in (-1, 0, 1) for n in range(1, 500))


def test_euler_phi_known_values():
    assert numtheory.euler_phi(1) == 1
    assert numtheory.euler_phi(9) == 6
    assert numtheory.euler_phi(12) == 4
    assert numtheory.euler_phi(97) == 96


def test_euler_phi_multiplicative():
    # phi(mn) = phi(m) phi(n) for coprime pairs
    for m, n in [(3, 8), (5, 9), (7, 16), (11, 25)]:
        assert numtheory.euler_phi(m * n) == numtheory.euler_phi(m) * numtheory.euler_phi(n)


def test_divisors_known_values():
    assert numtheory.divisors(1) == [1]
    assert numtheory.divisors(12) == [1, 2, 3, 4, 6, 12]
    assert numtheory.divisors(7) == [1, 7]
    assert numtheory.divisors(36) == [1, 2, 3, 4, 6, 9, 12, 18, 36]


def test_divisors_sorted_and_dividing():
    for n in range(1, 200):
        divs = numtheory.divisors(n)
        assert divs == sorted(divs)
        assert all(n % d == 0 for d in divs)
        assert divs[0] == 1 and divs[-1] == n


def test_totient_divisor_sum_identity():
    for n in range(1, 2000):
        assert sum(numtheory.euler_phi(d) for d in numtheory.divisors(n)) == n


def test_mobius_divisor_sum_identity():
    for n in range(1, 2000):
        total = sum(numtheory.mobius(d) for d in numtheory.divisors(n))
        assert total == (1 if n == 1 else 0)


def test_convolution_check_examples():
    assert numtheory.convolution_identity_check(1) == (1, 0, 1)
    s_all, s_even, s_odd = numtheory.convolution_identity_check(6)
    assert (s_all, s_even, s_odd) == (1, -1, 2)
    assert numtheory.convolution_identity_check(8) == (0, 0, 0)


def test_convolution_collapses_to_mobius():
    for n in range(1, 1000):
        s_all, s_even, s_odd = numtheory.convolution_identity_check(n)
        mu = numtheory.mobius(n)
        assert s_all == mu
        assert s_all == s_even + s_odd
        if n % 2 == 0:
            assert s_even == -mu
            assert s_odd == 2 * mu


@pytest.mark.parametrize(
    "func",
    [
        numtheory.mobius,
        numtheory.euler_phi,
        numtheory.divisors,
        numtheory.convolution_identity_check,
    ],
)
def test_nonpositive_rejected(func):
    with pytest.raises(ValueError):
        func(0)
    with pytest.raises(ValueError):
        func(-3)
