import time

import pytest

import nmsubgrad as ns

# filled by test_acceptance.py; printed as a summary block at the end
ACCEPTANCE_LINES: list[str] = []


def _benchmark_configs():
    """The three instance shapes shared by the audit and comparison tests.

    (n, m, zeta, spread, active_scale): spread places the optimum close to
    the start so 3000 iterations settle into the asymptotic regime, and
    active_scale sharpens the kink there. Frozen; changing them invalidates
    the recorded pass/fail history.
    """
    return [
        (2, 10, 0.01, 0.02, 2.0),
        (5, 30, 0.5, 0.05, 6.0),
        (10, 50, 1.0, 0.05, 10.0),
    ]


SEEDS = tuple(range(20))
ITERS = 3000


@pytest.fixture(scope="session")
def audit_runs():
    """60 solver runs (3 shapes x 20 seeds) plus their wall-clock time.

    Returns (runs, elapsed) where runs maps (n, m) -> list of
    (seed, problem, cfg, report) and elapsed covers the solves only.
    """
    runs = {}
    elapsed = 0.0
    for n, m, zeta, spread, scale in _benchmark_configs():
        entries = []
        for seed in SEEDS:
            inst = ns.plant_optimum_max_affine(
                seed, n, m, spread=spread, active_scale=scale
            )
            problem = ns.make_problem(inst)
            cfg = ns.SolverConfig(
                c=1.0, beta=0.9, rho=0.8, alpha1=0.1,
                gamma=ns.SqrtInverse(zeta), max_iters=ITERS, seed=seed,
            )
            t0 = time.perf_counter()
            report = ns.solve_nonmonotone(problem, cfg)
            elapsed += time.perf_counter() - t0
            entries.append((seed, problem, cfg, report))
        runs[(n, m)] = entries
    return runs, elapsed


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)
