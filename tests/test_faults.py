"""A standing fault matrix: verify's fast battery must FAIL on each fault.

Each fault is one line of kernel.c changed (built by the kernel_copy
fixture and loaded in place of the package's kernel) or one monkeypatch of
the sieve, of the frozen prime sums or of the kernel algebra.  A battery
that still passes on a fault would let it through (mutation analysis:
DeMillo, Lipton and Sayward, "Hints on test data selection", IEEE
Computer 11(4), 1978).
"""

import pytest

from omegashift import constants, genfun, kernel, sieve, verify

# What each fault does: (the pattern of the one line it changes, its replacement).
KERNEL_FAULTS = {
    "cofactor_test_at_the_bound": (r"\(cell\[j\] < bound\)", "(cell[j] <= bound)"),
    "phase_1_carries_one_word_too_far": (
        r"(for \(t = 0; t < nstream; t\+\+\)\n\s+carry_power\(&pw\[t\], len)\);",
        r"\1 + 1);",
    ),
    "powers_above_1000_start_one_multiple_late": (
        r"\{q, \(q - lo % q\) % q,", "{q, (q - lo % q) % q + (q > 1000 ? q : 0),"),
    "pattern_read_one_residue_on": (
        r"r = \(lo \+ start\) % period", "r = (lo + start + 1) % period"),
    "pattern_misses_each_power_at_zero": (
        r"for \(int64_t j = 0; j < period;", "for (int64_t j = pw[k].q; j < period;"),
}


def _assert_fast_battery_fails():
    summary = verify.verify_suite("fast", quiet=True)
    failed = [r.name for r in summary.results if r.status == "FAIL"]
    assert failed, "verify --level fast passed every check"


@pytest.mark.parametrize("fault", sorted(KERNEL_FAULTS))
def test_verify_fails_a_kernel_fault(kernel_copy, fault):
    kernel_copy(*KERNEL_FAULTS[fault])
    _assert_fast_battery_fails()


def test_verify_fails_a_pass_without_its_largest_base_prime(monkeypatch):
    planned = sieve.segment_pass

    def segment_pass(x_max, ws=()):
        plan = planned(x_max, ws)
        return kernel.SegmentPass(plan.primes[:-1], plan.steps[:-1], plan.bounds)

    monkeypatch.setattr(sieve, "segment_pass", segment_pass)
    _assert_fast_battery_fails()


def test_verify_fails_frozen_prime_sums_with_s3_doubled(monkeypatch):
    count, inv_sq, powers = constants._PRIME_SUMS
    monkeypatch.setattr(constants, "_PRIME_SUMS",
                        (count, inv_sq, (powers[0], 2 * powers[1], *powers[2:])))
    _assert_fast_battery_fails()


def test_verify_fails_phi_with_the_even_power_above_w_summed(monkeypatch):
    # phi(p^e) f(p^e) at e = 2a+2, p > w, as p^(a+1) + p^a in place of p^(a+1) - p^a
    real = genfun.phi_prime_power

    def summed(p, e, w):
        if e % 2 == 0 and p > w:
            a = (e - 2) // 2
            return (p ** (a + 1) + p**a, 0)
        return real(p, e, w)

    monkeypatch.setattr(genfun, "phi_prime_power", summed)
    _assert_fast_battery_fails()
