import pytest

from exact import D, claim1, digits, quantile, running_means


class TestExact:
    """The references' own identities, in decimal at 50 digits."""

    @pytest.mark.parametrize("lambda2, nu2, alpha", [
        (1.0, 1.0, 0.2), (2.0, 0.5, -0.7), (-0.3, 1.0, 0.9), (1e300, 1e-320, 0.5),
        (1.5, 1.0, 1.0), (0.3, 2.0, -1.0)])
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_claim1_identities(self, lambda2, nu2, alpha, n):
        d, tau, _, slack = claim1(lambda2, nu2, alpha, n)
        with digits(50):
            assert abs(d + 2 * tau - D(lambda2)) <= D("1e-45") * (abs(d) + 2 * abs(tau))
            dn = d * D(nu2) - n * tau * tau
            assert abs(slack - dn) <= D("1e-45") * (abs(d * D(nu2)) + n * tau * tau)
            if n == 1:
                assert slack == D(nu2) * (D(lambda2) + D(nu2)) * (1 - D(alpha) ** 2)
                assert (slack == 0) is (abs(alpha) == 1)

    @pytest.mark.parametrize("phi, rho, delta", [
        (1.0, 1.0, 1.0), (2.0, 1.5, 0.5), (1e300, 50.0, 1e-300), (1e-320, 0.5, 1e-320)])
    def test_cdf_at_the_quantile_gives_back_u(self, phi, rho, delta):
        for u in (1e-300, 1e-20, 0.1, 0.5, 0.9, 1 - 1e-16):
            y = quantile(phi, rho, delta, u)
            with digits(50):
                t = D(phi) * y ** D(rho)
                assert abs(t / (D(delta) + t) - D(u)) <= D("1e-40") * D(u)

    def test_running_mean_is_the_mean_of_the_first_quantiles(self):
        us = [0.1 * j + 0.05 for j in range(10)]
        means = running_means(2.0, 1.5, 0.5, us)
        with digits(50):
            for n in range(1, len(us) + 1):
                assert means[n - 1] == sum(quantile(2.0, 1.5, 0.5, u) for u in us[:n]) / n
