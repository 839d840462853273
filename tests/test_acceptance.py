"""End-to-end acceptance checks.

One test per release criterion; each prints its own PASS line after the
assertions hold, so `pytest tests/test_acceptance.py -v -s` yields one
line per criterion.
"""

import time

import numpy as np
from numpy.testing import assert_allclose

from pscore import (
    CountsTable,
    ScoreVector,
    build_chain,
    group_consistency_check,
    normalize_max_one,
    rank_authors,
    solve_pipeline,
    steady_state,
    venue_scores,
)
from pscore.chain import build_reduced
from pscore.cli import main
from pscore.solver import gth_steady_state

from conftest import (
    DATA_DIR,
    GOLDEN_AUTHOR_COUNTS,
    GOLDEN_D,
    GOLDEN_GROUPS,
    GOLDEN_MATRIX,
    GOLDEN_MAX1_3DP,
    GOLDEN_NU_3DP,
    GOLDEN_VENUES,
    random_counts_table,
    random_stochastic_matrix,
    table_from_matrix,
)
from oracles import dense_blocks, dense_counts, dense_reduced, power_iteration

GOLDEN_CLI_ARGS = [
    "--input", str(DATA_DIR / "golden_records.jsonl"),
    "--groups-file", str(DATA_DIR / "golden_groups.txt"),
    "--author-counts", str(DATA_DIR / "golden_author_counts.csv"),
    "--d", str(1 / 3),
]
DISJOINT_CLI_ARGS = [
    "--input", str(DATA_DIR / "disjoint_records.jsonl"),
    "--groups-file", str(DATA_DIR / "disjoint_groups.txt"),
    "--d", "1",
]


def _passed(number: int, label: str) -> None:
    print(f"ACCEPTANCE {number} ({label}): PASS")


def _golden_table() -> CountsTable:
    return table_from_matrix(GOLDEN_MATRIX, GOLDEN_AUTHOR_COUNTS, GOLDEN_GROUPS, GOLDEN_VENUES)


def _solve(table: CountsTable, d: float):
    chain = build_chain(table, d)
    gamma = steady_state(chain)
    nu = ScoreVector(table.venue_names, venue_scores(gamma, chain))
    return chain, gamma, nu


def _corpus(seed: int, count: int):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        table = random_counts_table(rng, max_groups=20, max_venues=200, max_count=50)
        yield table, float(rng.uniform(0.0, 1.0))


def test_criterion_1_golden_example():
    started = time.perf_counter()
    _, _, nu = _solve(_golden_table(), GOLDEN_D)
    top = normalize_max_one(np.asarray(nu.scores))
    elapsed = time.perf_counter() - started
    assert_allclose(nu.scores, GOLDEN_NU_3DP, rtol=0, atol=0.0015)
    assert_allclose(top, GOLDEN_MAX1_3DP, rtol=0, atol=0.002)
    assert elapsed < 1.0, f"golden solve took {elapsed:.3f}s"
    _passed(1, "golden example")


def test_criterion_2_fixed_point_residuals():
    started = time.perf_counter()
    worst_stationary = worst_consistency = 0.0
    for table, d in _corpus(seed=20260811, count=200):
        chain, gamma, nu = _solve(table, d)
        reduced = dense_reduced(table, d)
        stationary = float(np.max(np.abs(gamma.gamma @ reduced - gamma.gamma)))
        consistency = group_consistency_check(gamma, np.asarray(nu.scores), chain)
        worst_stationary = max(worst_stationary, stationary)
        worst_consistency = max(worst_consistency, consistency)
        assert stationary <= 1e-10
        assert consistency <= 1e-10
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"200 instances took {elapsed:.1f}s"
    _passed(2, f"fixed point, worst residuals {worst_stationary:.2e}/{worst_consistency:.2e}")


def test_criterion_3_oracle_equivalence():
    rng = np.random.default_rng(31337)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 51))
        p = random_stochastic_matrix(rng, n)
        gth = gth_steady_state(p)
        power = power_iteration(p, tol=1e-12)
        gap = float(np.max(np.abs(gth.gamma - power.gamma)))
        worst = max(worst, gap)
        assert gap <= 1e-9
    _passed(3, f"oracle equivalence, worst gap {worst:.2e}")


def test_criterion_4_limit_behaviors():
    table = _golden_table()
    _, _, nu = _solve(table, 0.0)
    breadth = table.d_venue / table.d_venue.sum()
    assert_allclose(nu.scores, breadth, rtol=0, atol=1e-12)

    single, _ = table.restrict([1])
    _, _, nu_single = _solve(single, 1.0)
    volume = dense_counts(single)[0] / single.n_group[0]
    assert_allclose(nu_single.scores, volume, rtol=0, atol=1e-12)
    _passed(4, "limit behaviors at d=0 and d=1")


def test_criterion_5_stochasticity_suite():
    worst_row = worst_nu = 0.0
    for table, d in _corpus(seed=20260811, count=60):
        chain, _, nu = _solve(table, d)
        alpha, beta = dense_blocks(table, d)
        for matrix in (alpha, beta, build_reduced(chain)):
            worst_row = max(worst_row, float(np.max(np.abs(matrix.sum(axis=1) - 1.0))))
        worst_nu = max(worst_nu, abs(float(np.asarray(nu.scores).sum()) - 1.0))
    assert worst_row <= 1e-9
    assert worst_nu <= 1e-10
    _passed(5, f"stochasticity, worst row drift {worst_row:.2e}, score sum drift {worst_nu:.2e}")


def test_criterion_6_scaling_and_permutation():
    table = _golden_table()
    _, _, nu = _solve(table, GOLDEN_D)

    for k in (2, 3, 10):
        scaled = table_from_matrix(
            np.asarray(GOLDEN_MATRIX) * k,
            np.asarray(GOLDEN_AUTHOR_COUNTS) * k,
            GOLDEN_GROUPS,
            GOLDEN_VENUES,
        )
        _, _, nu_scaled = _solve(scaled, GOLDEN_D)
        assert_allclose(nu_scaled.scores, nu.scores, rtol=0, atol=1e-12)

    rng = np.random.default_rng(99)
    for table_base in (table, random_counts_table(rng, max_groups=8, max_venues=15, max_count=9)):
        matrix = dense_counts(table_base)
        sigma = rng.permutation(table_base.num_groups)
        tau = rng.permutation(table_base.num_venues)
        permuted = table_from_matrix(
            matrix[np.ix_(sigma, tau)],
            table_base.d_venue[tau],
            [table_base.group_names[w] for w in sigma],
            [table_base.venue_names[j] for j in tau],
        )
        _, gamma_base, nu_base = _solve(table_base, 0.4)
        _, gamma_perm, nu_perm = _solve(permuted, 0.4)
        assert nu_perm.names == tuple(table_base.venue_names[j] for j in tau)
        assert_allclose(nu_perm.scores, np.asarray(nu_base.scores)[tau], rtol=0, atol=1e-12)
        assert_allclose(gamma_perm.gamma, gamma_base.gamma[sigma], rtol=0, atol=1e-12)

    pubs = {"a": {"v1": 2, "v3": 1}, "b": {"v2": 1}, "c": {"v1": 1, "v2": 3}}
    base = rank_authors(pubs, nu)
    for k in (2, 3, 10):
        scaled = rank_authors(
            {author: {v: k * n for v, n in per.items()} for author, per in pubs.items()}, nu
        )
        assert [(e.rank, e.name) for e in scaled.entries] == [
            (e.rank, e.name) for e in base.entries
        ]
        for left, right in zip(scaled.entries, base.entries):
            assert abs(left.score - right.score) <= 1e-12
    _passed(6, "count scaling, label permutation, author scaling")


def test_criterion_7_cli_determinism(tmp_path, capsys):
    paths = {}
    for tag in ("one", "two"):
        venues_out = tmp_path / f"venues_{tag}.tsv"
        venues_json = tmp_path / f"venues_{tag}.json"
        groups_out = tmp_path / f"groups_{tag}.tsv"
        authors_out = tmp_path / f"authors_{tag}.tsv"
        assert main(["venues", *GOLDEN_CLI_ARGS, "-o", str(venues_out)]) == 0
        assert main(["venues", *GOLDEN_CLI_ARGS, "--format", "json", "-o", str(venues_json)]) == 0
        assert main(["groups", *GOLDEN_CLI_ARGS, "-o", str(groups_out)]) == 0
        assert main([
            "authors", "--venue-scores", str(venues_out),
            "--author-pubs", str(DATA_DIR / "golden_author_pubs.jsonl"),
            "-o", str(authors_out),
        ]) == 0
        assert main(["validate", *GOLDEN_CLI_ARGS]) == 0
        paths[tag] = (venues_out, venues_json, groups_out, authors_out,
                      capsys.readouterr().out)
    for first, second in zip(paths["one"][:4], paths["two"][:4]):
        assert first.read_bytes() == second.read_bytes()
    assert paths["one"][4] == paths["two"][4]
    _passed(7, "byte-identical CLI reruns")


def test_criterion_8_disconnection_handling(tmp_path, capsys, caplog):
    out = tmp_path / "venues.tsv"
    assert main(["venues", *DISJOINT_CLI_ARGS, "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert "disconnected" in err and "{G1}" in err and "{G2}" in err
    assert not out.exists()

    with caplog.at_level("WARNING", logger="pscore.pipeline"):
        code = main(["venues", *DISJOINT_CLI_ARGS, "--allow-largest-component", "-o", str(out)])
    assert code == 0
    assert "largest component" in caplog.text
    rows = [line.split("\t") for line in out.read_text().splitlines() if not line.startswith("#")]
    scores = {cells[0]: float(cells[1]) for cells in rows[1:]}
    assert scores == {"v1": 1.0, "v2": 0.0}
    _passed(8, "disconnection handling at d=1")


def test_pipeline_consistency_assertion_is_wired():
    # the library pipeline, which the CLI runs, reports the residual it asserted on
    result = solve_pipeline(_golden_table(), GOLDEN_D)
    assert result.consistency_residual <= 1e-10
    assert abs(float(np.asarray(result.nu_raw.scores).sum()) - 1.0) <= 1e-10
