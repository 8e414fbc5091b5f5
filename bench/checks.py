"""Correctness gate for the benchmark's outputs.

Every check takes a parsed CSV table and returns a list of failure
messages; an empty list means the output passed.  A failure message
names the rows or parameter points involved, so a mismatch can be
reproduced from the report alone.

What is checked, by operation kind:

* walk: P_up + P_down = 1 to 1e-12 at every step, 0 <= normalized <= 1,
  E <= log2 N, N <= step + 1, step-2 probabilities against the closed
  forms of `tandemwalk.analytic`, exact zeros at the special points;
* sweep: averaged values in [0, 1], the same per-step invariants for
  per-step tables, exact zeros at the balanced product-chain points, and
  one row of each general-coin line recomputed through
  `averaged_entanglement`;
* averaged search: every hit recomputed through the scalar engine
  (`walk_entanglement_series`): N exactly, the mean to 1e-9, and the
  mean and minimum P clear their thresholds;
* isolated search: every hit meets the criterion as printed, and a
  seeded sample is recomputed through the scalar engine;
* golden: for the default seed, rows equal the recorded ones, keys and
  counts exactly and floats to 1e-12.
"""

from dataclasses import dataclass

import numpy as np

from tandemwalk import (
    BALANCED_ALPHA,
    CoinOperator,
    ShiftOperator,
    Spin,
    averaged_entanglement,
    balanced_shift,
    psi_down_2,
    psi_up_2,
    walk_entanglement_series,
)

SUM_ATOL = 1e-12
ENTROPY_ATOL = 1e-12
REVALIDATE_ATOL = 1e-9
GOLDEN_ATOL = 1e-12
ISOLATED_SAMPLE = 200
MAX_LISTED = 5

SEARCH_HEADER = ["rho", "theta", "eta", "alpha", "beta_arg", "step", "outcome",
                 "normalized_E", "P", "N"]
WALK_HEADER = ["step", "outcome", "P", "N", "E_bits", "normalized_E"]
_OUTCOME_CODE = {"up": 0.0, "down": 1.0}


@dataclass
class Table:
    """A CSV output without its metadata lines: header and raw string rows."""

    header: list
    rows: list

    def col(self, name: str) -> np.ndarray:
        j = self.header.index(name)
        if name == "outcome":
            return np.array([row[j] for row in self.rows])
        return np.array([float(row[j]) for row in self.rows])

    def numeric(self) -> np.ndarray:
        """All columns as float64, outcome coded up=0, down=1."""
        out = np.empty((len(self.rows), len(self.header)))
        for j, name in enumerate(self.header):
            if name == "outcome":
                out[:, j] = [_OUTCOME_CODE[row[j]] for row in self.rows]
            else:
                out[:, j] = [float(row[j]) for row in self.rows]
        return out


def parse(text: str) -> Table:
    header, rows = None, []
    for line in text.splitlines():
        if line.startswith("#"):
            continue
        if header is None:
            header = line.split(",")
        elif line:
            rows.append(line.split(","))
    if header is None:
        raise ValueError("output has no header line")
    return Table(header, rows)


def _listed(mask, describe) -> str:
    idx = np.nonzero(mask)[0]
    shown = "; ".join(describe(int(i)) for i in idx[:MAX_LISTED])
    more = f" (+{idx.size - MAX_LISTED} more)" if idx.size > MAX_LISTED else ""
    return f"{idx.size} rows: {shown}{more}"


def _step_invariants(table: Table, label: str) -> list[str]:
    """0 <= P <= 1, 0 <= normalized <= 1, 0 <= E <= log2 N, N <= step + 1.

    E may miss its bounds by rounding: a single term of weight 1 + 1e-16
    has entropy -6e-16 bits, so both bounds carry ENTROPY_ATOL.
    """
    step, p = table.col("step"), table.col("P")
    n, e, cal = table.col("N"), table.col("E_bits"), table.col("normalized_E")
    log_n = np.log2(np.maximum(n, 1.0))
    checks = (
        ("P outside [0, 1]", (p < 0) | (p > 1 + SUM_ATOL)),
        ("normalized_E outside [0, 1]", (cal < 0) | (cal > 1)),
        ("E_bits outside [0, log2 N]", (e < -ENTROPY_ATOL) | (e > log_n + ENTROPY_ATOL)),
        ("N above step + 1", n > step + 1),
    )
    failures = []
    for what, bad in checks:
        if bad.any():
            failures.append(f"{label}: {what}: " + _listed(
                bad, lambda i: ",".join(table.rows[i])))
    return failures


def check_walk(op, table: Table) -> list[str]:
    if table.header != WALK_HEADER:
        return [f"{op.label}: header {table.header}"]
    if len(table.rows) != 2 * op.steps:
        return [f"{op.label}: {len(table.rows)} rows, expected {2 * op.steps}"]
    failures = _step_invariants(table, op.label)
    step, outcome, p = table.col("step"), table.col("outcome"), table.col("P")
    down, up = outcome == "down", outcome == "up"
    if not (np.array_equal(step[down], step[up]) and down.sum() == op.steps):
        return failures + [f"{op.label}: steps do not pair up and down rows"]
    total = p[down] + p[up]
    bad = np.abs(total - 1.0) > SUM_ATOL
    if bad.any():
        failures.append(f"{op.label}: P_up + P_down != 1: " + _listed(
            bad, lambda i: f"step {int(step[down][i])} sum {float(total[i])!r}"))
    special = op.check.get("special")
    if special:
        e, cal, n = table.col("E_bits"), table.col("normalized_E"), table.col("N")
        bad = (e != 0.0) | (cal != 0.0) | (n > 1)
        if special == "chain":
            bad |= down & (p != 0.0)
        if bad.any():
            failures.append(f"{op.label}: special point not exactly degenerate: "
                            + _listed(bad, lambda i: ",".join(table.rows[i])))
    params = op.check.get("params")
    if params:
        coin = CoinOperator(params["rho"], params["theta"], params["eta"])
        shift = ShiftOperator(alpha=params["alpha"], beta_arg=params["beta_arg"])
        for closed, mask in ((psi_up_2(coin, shift), up), (psi_down_2(coin, shift), down)):
            got = p[mask & (step == 2)][0]
            if abs(got - closed.probability) > SUM_ATOL:
                failures.append(f"{op.label}: step-2 P {got!r} vs closed form "
                                f"{closed.probability!r} ({closed.outcome.value})")
    return failures


def _sweep_point(row: list, params: dict, swept: str):
    point = dict(params)
    point[swept] = float(row[0])
    coin = CoinOperator(point["rho"], point["theta"], point["eta"])
    if point["alpha"] == BALANCED_ALPHA:
        return coin, balanced_shift(point["beta_arg"])
    return coin, ShiftOperator(alpha=point["alpha"], beta_arg=point["beta_arg"])


def check_sweep(op, table: Table) -> list[str]:
    if not table.rows:
        return [f"{op.label}: no rows"]
    last = table.header[-1]
    if last == "normalized_E":
        return _step_invariants(table, op.label)
    if not last.startswith("avg_E_"):
        return [f"{op.label}: unexpected header {table.header}"]
    value = table.col(last)
    failures = []
    bad = (value < 0) | (value > 1)
    if bad.any():
        failures.append(f"{op.label}: average outside [0, 1]: "
                        + _listed(bad, lambda i: ",".join(table.rows[i])))
    # hadamard coin at the balanced real shift is a product-state chain
    figure = op.check.get("figure")
    zero_at = {"fig1": ("alpha", BALANCED_ALPHA), "fig4": ("beta_arg", 0.0)}.get(figure)
    if zero_at:
        at = table.col(zero_at[0]) == zero_at[1]
        bad = at & (value != 0.0)
        if at.sum() != 2 or bad.any():
            failures.append(f"{op.label}: expected exact zeros at {zero_at[0]}="
                            f"{zero_at[1]!r}, found {at.sum()} rows: "
                            + _listed(at, lambda i: ",".join(table.rows[i])))
    params = op.check.get("params")
    if params:
        # one seeded row per line, recomputed through the library
        i = op.check["row"] % len(table.rows)
        row = table.rows[i]
        coin, shift = _sweep_point(row, params, op.check["swept"])
        n = int(last[len("avg_E_"):])
        outcome = Spin(row[table.header.index("outcome")])
        want = averaged_entanglement(coin, shift, n, outcome).value
        if abs(want - value[i]) > REVALIDATE_ATOL:
            failures.append(f"{op.label}: row {','.join(row)} vs library {want!r}")
    return failures


def _hit_summary(label: str, problems: list[str], checked: int) -> list[str]:
    if not problems:
        return []
    more = f"; (+{len(problems) - MAX_LISTED} more)" if len(problems) > MAX_LISTED else ""
    return [f"{label}: {len(problems)} of {checked} hits disagree with the scalar engine: "
            + "; ".join(problems[:MAX_LISTED]) + more]


def _hit_operators(row: list):
    coin = CoinOperator(rho=float(row[0]), theta=float(row[1]), eta=float(row[2]))
    shift = ShiftOperator(alpha=float(row[3]), beta_arg=float(row[4]))
    return coin, shift


def _search_header(op, table: Table) -> list[str]:
    if table.header != SEARCH_HEADER:
        return [f"{op.label}: header {table.header}"]
    return []


def check_averaged(op, table: Table) -> list[str]:
    """Recompute every averaged-search hit through the scalar engine."""
    failures = _search_header(op, table)
    if failures:
        return failures
    p_min, avg_min, n = op.check["p_min"], op.check["avg_min"], op.steps
    disagree = []
    for row in table.rows:
        where = ",".join(row[:7])
        if int(row[5]) != n:
            disagree.append(f"hit {where}: step {row[5]} != {n}")
            continue
        coin, shift = _hit_operators(row)
        series = walk_entanglement_series(coin, shift, n, Spin(row[6]))
        mean = sum(r.normalized for r in series[1:]) / (n - 1)
        min_p = min(r.probability for r in series[1:])
        problems = []
        if series[-1].term_count != int(row[9]):
            problems.append(f"N {row[9]} vs scalar {series[-1].term_count}")
        if abs(mean - float(row[7])) > REVALIDATE_ATOL:
            problems.append(f"mean {row[7]} vs scalar {mean!r}")
        if not mean > avg_min:
            problems.append(f"scalar mean {mean!r} <= avg_min {avg_min!r}")
        if not (min_p > p_min and float(row[8]) > p_min):
            problems.append(f"min P {row[8]} / scalar {min_p!r} <= p_min {p_min}")
        if problems:
            disagree.append(f"hit {where}: " + ", ".join(problems))
    return _hit_summary(op.label, disagree, len(table.rows))


def check_isolated(op, table: Table) -> list[str]:
    """Check every isolated hit's criterion and recompute a seeded sample."""
    failures = _search_header(op, table)
    if failures or not table.rows:
        return failures or [f"{op.label}: no hits"]
    p_min = op.check["p_min"]
    step, n = table.col("step"), table.col("N")
    cal, p = table.col("normalized_E"), table.col("P")
    bad = ((cal <= 1.0 - REVALIDATE_ATOL) | (cal > 1.0) | (p <= p_min)
           | (step < 2) | (step > op.steps) | (n < 2) | (n > step + 1))
    if bad.any():
        failures.append(f"{op.label}: hits break the criterion: "
                        + _listed(bad, lambda i: ",".join(table.rows[i])))
    rng = np.random.default_rng(op.check["sample_seed"])
    size = min(ISOLATED_SAMPLE, len(table.rows))
    disagree = []
    for i in sorted(rng.choice(len(table.rows), size=size, replace=False)):
        row = table.rows[i]
        coin, shift = _hit_operators(row)
        a = int(row[5])
        record = walk_entanglement_series(coin, shift, max(a, 2), Spin(row[6]))[a - 1]
        problems = []
        if record.term_count != int(row[9]):
            problems.append(f"N {row[9]} vs scalar {record.term_count}")
        if abs(record.normalized - float(row[7])) > REVALIDATE_ATOL:
            problems.append(f"normalized {row[7]} vs scalar {record.normalized!r}")
        if not record.probability > p_min:
            problems.append(f"scalar P {record.probability!r} <= p_min {p_min}")
        if problems:
            disagree.append(f"hit {','.join(row[:7])}: " + ", ".join(problems))
    return failures + _hit_summary(op.label, disagree, size)


def check_hit_subset(strict_op, strict: Table, loose_op, loose: Table) -> list[str]:
    """Hits at a higher average threshold must all be hits at a lower one."""
    missing = {tuple(r) for r in strict.rows} - {tuple(r) for r in loose.rows}
    if not missing:
        return []
    shown = "; ".join(",".join(r[:7]) for r in sorted(missing)[:MAX_LISTED])
    return [f"{loose_op.label}: {len(missing)} hits of {strict_op.label} missing: {shown}"]


CHECKS = {
    "walk": check_walk,
    "sweep": check_sweep,
    "averaged": check_averaged,
    "isolated": check_isolated,
}


def _is_float_column(name: str) -> bool:
    return name in ("P", "E_bits", "normalized_E") or name.startswith("avg_E_")


def compare_golden(label: str, table: Table, header: list, rows: np.ndarray) -> list[str]:
    """Rows against the recorded ones: keys and counts exactly, floats to 1e-12."""
    if table.header != list(header):
        return [f"{label}: golden header {list(header)} vs {table.header}"]
    got = table.numeric()
    if got.shape != rows.shape:
        return [f"{label}: {got.shape[0]} rows vs {rows.shape[0]} golden rows"]
    floats = np.array([_is_float_column(name) for name in header], dtype=bool)
    exact_bad = (got[:, ~floats] != rows[:, ~floats]).any(axis=1)
    float_bad = (np.abs(got[:, floats] - rows[:, floats]) > GOLDEN_ATOL).any(axis=1)
    failures = []
    for what, bad in (("keys or counts differ", exact_bad), ("floats differ by > 1e-12", float_bad)):
        if bad.any():
            failures.append(f"{label}: golden {what}: " + _listed(
                bad, lambda i: ",".join(table.rows[i]) + " vs golden "
                + ",".join(repr(float(x)) for x in rows[i])))
    return failures
