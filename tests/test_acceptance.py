"""Acceptance criteria, one test per criterion.

Each test runs its criterion at the stated tolerance and prints a
PASS/FAIL line; the assertions carry the measured details.
"""

from renorm import verify


def _run(number):
    name, check = verify.CRITERIA[number - 1]
    passed, detail = check(verify.DEFAULT_SEED)
    print(f"[{number:2d}] {'PASS' if passed else 'FAIL'} {name}: {detail}")
    assert passed, f"criterion {number} ({name}): {detail}"


def test_criterion_01_exact_moments():
    _run(1)


def test_criterion_02_pairing_oracle():
    _run(2)


def test_criterion_03_renorm_identity():
    _run(3)


def test_criterion_04_single_mode():
    _run(4)


def test_criterion_05_quadrature_oracle():
    _run(5)


def test_criterion_06_modulus_bounds():
    _run(6)


def test_criterion_07_partition_decay():
    _run(7)


def test_criterion_08_mc_cross_check():
    _run(8)


def test_criterion_09_flow_convergence():
    _run(9)


def test_criterion_10_kappa_recovery():
    _run(10)


def test_criterion_11_cross_track():
    _run(11)


def test_criterion_12_determinism():
    _, first = verify.build_core(verify.DEFAULT_SEED)
    _, second = verify.build_core(verify.DEFAULT_SEED)
    ok = first == second
    print(f"[12] {'PASS' if ok else 'FAIL'} {verify.CRITERIA[11][0]}: core report bytes stable")
    assert ok
