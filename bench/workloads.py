"""The benchmark's workloads: seeded input generators, operations and checks.

Every workload generates its inputs from the seed with numpy alone; the
library receives only those inputs (profile vectors, or the path of a CSV
log).  One operation is one call a user would make; the benchmark runs
operations back to back from a single thread (a closed loop with one
caller), making whole passes over a pool of generated inputs, so that
repeats of the same input can be checked for identical output.

Workloads and the layer each one stresses:

* ``cohort-day``: ``population.study`` plus ``write_csvs`` on 24-slot
  cohorts.  The batch path; ``strategies`` dominates, ``buffer`` follows.
* ``profile-week``: one week-by-hour profile (n = 168) at a time, through
  ``critical_rate``, ``privacy_deferral_curve`` and ``analyze_buffer``.
  ``buffer`` dominates through the O(n^2) ``steady_state``; ``population`` is
  bypassed.  A few degenerate profiles are mixed in, one-slot ones included.
* ``log-ingest``: the ``population study`` CLI on generated CSV logs with
  mixed timestamp formats, malformed rows and low-activity users;
  ``read_records`` and ``ingest`` dominate.  The only workload that parses.
* ``sim-validate``: ``empirical_vs_analytic`` on 24-slot profiles; the only
  workload where ``simulate`` runs.
"""

import contextlib
import csv
import io
import json
import re
import warnings
from collections import Counter
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

import checks
from deferral import buffer, cli, population, profiles, simulate, strategies

#: Rate grid shared by every workload; the CLI spelling of the same grid.
GRID = np.linspace(0.05, 0.7, 14)
GRID_SPEC = "0.05:0.7:14"

#: Mean messages per user per day in the paper's synthetic model.
MEAN_DAILY = 1879.42


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, sum(map(ord, workload))])


def _critical_rate(q) -> float:
    q = np.asarray(q, dtype=float)
    return float(0.5 * np.abs(q - 1.0 / q.size).sum())


class Workload:
    """What every workload provides besides ``run``, ``check`` and ``work``."""

    pool: int

    def known_error(self, i: int, error: str) -> bool:
        """Is ``error``, raised by operation ``i``, a known defect?

        A known error still fails its operation; any other error also
        makes the run incorrect.
        """
        return False


class CohortDay(Workload):
    """Population studies over synthetic 24-slot cohorts."""

    name = "cohort-day"
    n = 24
    pool = 32
    users = 8

    def __init__(self, seed: int, workdir: Path):
        self.q, self.counts = self.generate(seed)
        self.out_dir = workdir / "study"
        self.scheme = profiles.SlotScheme.day(self.n)
        self.digests = checks.RepeatDigests()
        self.shape = {
            "n": self.n, "cohorts": self.pool, "users_per_cohort": self.users,
            "profiles": "Dirichlet(1)", "counts": f"Poisson({MEAN_DAILY})",
            "rate_grid": GRID_SPEC,
        }

    @classmethod
    def generate(cls, seed: int):
        rng = _rng(seed, cls.name)
        q = rng.dirichlet(np.ones(cls.n), size=(cls.pool, cls.users))
        counts = np.maximum(1, rng.poisson(MEAN_DAILY, size=(cls.pool, cls.users)))
        return q, counts.astype(float)

    def work(self, i: int) -> Counter:
        return Counter(users=self.users)

    def run(self, i: int):
        k = i % self.pool
        users = {
            f"user{u:03d}": profiles.ActivityProfile(self.scheme, self.q[k, u], count=self.counts[k, u])
            for u in range(self.users)
        }
        result = population.study(users, GRID)
        return result, result.write_csvs(self.out_dir)

    def check(self, i: int, out, stderr: str) -> list[str]:
        result, paths = out
        k = i % self.pool
        problems = checks.equal("users kept", result.n_users, self.users)
        for u in range(self.users):
            base = checks.entropy_bits(self.q[k, u])
            bits = base * (1.0 + result.gain_curves[u] / 100.0)
            problems += checks.gain_curve(GRID, bits, result.phi_crit[u], self.n)
        problems += checks.pmf_rows(result.aggregate_after, "aggregate_after")
        problems += checks.delay_range(result.delay_conditional_slots, self.n, "conditional delay")
        tables = [Path(p).read_bytes() for p in paths]
        return problems + self.digests.check(k, checks.digest(*tables))


class ProfileWeek(Workload):
    """Single week-by-hour profiles, a few of them degenerate."""

    name = "profile-week"
    n = 168
    pool = 100
    #: Degenerate profiles in every pool; the rest are Dirichlet(1).
    DEGENERATE = ("one-slot", "uniform", "two-slot", "near-uniform") * 2

    def __init__(self, seed: int, workdir: Path):
        self.q, self.counts, self.kinds = self.generate(seed)
        self.scheme = profiles.SlotScheme.week(self.n)
        self.digests = checks.RepeatDigests()
        self.shape = {
            "n": self.n, "profiles": self.pool, "rate_grid": GRID_SPEC,
            "degenerate": {kind: self.DEGENERATE.count(kind) for kind in dict.fromkeys(self.DEGENERATE)},
            "rest": "Dirichlet(1)", "counts": f"Poisson(7 * {MEAN_DAILY})",
        }

    @classmethod
    def generate(cls, seed: int):
        rng = _rng(seed, cls.name)
        n = cls.n
        kinds = list(cls.DEGENERATE) + ["dirichlet"] * (cls.pool - len(cls.DEGENERATE))
        kinds = [kinds[j] for j in rng.permutation(cls.pool)]
        q = rng.dirichlet(np.ones(n), size=cls.pool)
        counts = rng.poisson(7 * MEAN_DAILY, size=cls.pool).astype(float)
        for k, kind in enumerate(kinds):
            if kind == "one-slot":  # a single-message user
                q[k] = 0.0
                q[k, rng.integers(n)] = 1.0
                counts[k] = 1.0
            elif kind == "uniform":
                q[k] = 1.0 / n
            elif kind == "two-slot":
                q[k] = 0.0
                a, b = rng.choice(n, size=2, replace=False)
                q[k, a] = rng.uniform(0.2, 0.8)
                q[k, b] = 1.0 - q[k, a]
            elif kind == "near-uniform":
                noisy = 1.0 + 0.01 * rng.standard_normal(n)
                q[k] = noisy / noisy.sum()
        return q, counts, kinds

    def work(self, i: int) -> Counter:
        return Counter(users=1)

    def known_error(self, i: int, error: str) -> bool:
        """A single-message user has zero entropy, which ``relative_privacy_gain``
        rejects instead of reporting a gain (ROADMAP item 4)."""
        return (
            self.kinds[i % self.pool] == "one-slot"
            and error.startswith("ValueError: relative privacy gain undefined")
            and error.endswith("zero entropy")
        )

    def run(self, i: int):
        k = i % self.pool
        profile = profiles.ActivityProfile(self.scheme, self.q[k], count=self.counts[k])
        phi_crit = profiles.critical_rate(profile)
        points = strategies.privacy_deferral_curve(profile, GRID)
        strat = strategies.solve_optimal(profile, phi_crit)
        pattern, cap, dist = buffer.analyze_buffer(strat)
        return phi_crit, points, strat.phi, pattern, cap, dist

    def check(self, i: int, out, stderr: str) -> list[str]:
        phi_crit, points, phi, pattern, cap, dist = out
        problems = checks.gain_curve(GRID, [p.entropy_bits for p in points], phi_crit, self.n)
        problems += checks.delay_pmf(dist.pmf, phi, self.n)
        if dist.pmf.sum() > checks.ATOL:
            problems += checks.delay_range([dist.expected_conditional], self.n, "conditional delay")
        record = json.dumps(
            [[(p.phi, p.entropy_bits, p.gain_pct) for p in points], pattern.to_dict(), cap, dist.to_dict()]
        )
        return problems + self.digests.check(i % self.pool, checks.digest(record))


class LogIngest(Workload):
    """The ``population study`` CLI on generated timestamp logs.

    The pool holds 216 active users, split over twelve logs of about
    18,000 rows each, so that a run times about forty operations rather than
    the four that one log of all of them would allow.
    """

    name = "log-ingest"
    n = 24
    pool = 12
    active_users = 18
    low_users = 1
    mean_messages = 1000
    min_count = 50
    malformed_share = 0.01
    #: Midnight UTC, so that the time of day of a timestamp fixes its slot.
    EPOCH0 = 19675 * 86_400
    MALFORMED = (
        ("{user}", "not-a-time"),
        ("{user}", ""),
        ("", "{ts}"),
        ("{user}", "-3600"),
        ("{user}", "2023-02-30T10:00:00Z"),
    )

    def __init__(self, seed: int, workdir: Path):
        self.logs = self.generate(seed)
        self.paths = []
        for k, log in enumerate(self.logs):
            path = workdir / f"log{k}.csv"
            path.write_text(log.pop("text"))  # keep only the file, not a second copy in memory
            self.paths.append(path)
        self.out_dir = workdir / "study"
        self.digests = checks.RepeatDigests()
        self.verified: set[int] = set()
        self.shape = {
            "n": self.n, "logs": self.pool, "users_per_log": self.active_users + self.low_users,
            "low_activity_users_per_log": self.low_users, "min_count": self.min_count,
            "mean_messages": self.mean_messages, "malformed_share": self.malformed_share,
            "timestamps": "half epoch seconds, half ISO-8601", "rate_grid": GRID_SPEC,
        }

    @classmethod
    def generate(cls, seed: int) -> list[dict]:
        rng = _rng(seed, cls.name)
        return [cls._log(rng, k) for k in range(cls.pool)]

    @classmethod
    def _log(cls, rng: np.random.Generator, k: int) -> dict:
        rows, slot_counts, low = [], {}, []
        n_users = cls.active_users + cls.low_users
        for u in range(n_users):
            user = f"u{k:02d}{u:03d}"
            if u < cls.active_users:
                count = int(rng.poisson(cls.mean_messages))
            else:
                count = int(rng.integers(1, cls.min_count))
                low.append(user)
            slots = rng.choice(cls.n, size=count, p=rng.dirichlet(np.ones(cls.n)))
            ts = (
                cls.EPOCH0
                + 86_400 * rng.integers(0, 365, size=count)
                + 3600 * slots
                + rng.integers(1, 3600, size=count)
            )
            iso = np.char.add(np.datetime_as_string(ts.astype("datetime64[s]"), unit="s"), "Z")
            texts = np.where(rng.random(count) < 0.5, iso, ts.astype(str))
            rows += [f"{user},{text}" for text in texts.tolist()]
            if u < cls.active_users:
                slot_counts[user] = np.bincount(slots, minlength=cls.n)
        valid = len(rows)
        malformed = int(round(cls.malformed_share * valid))
        for j in range(malformed):
            user_t, ts_t = cls.MALFORMED[j % len(cls.MALFORMED)]
            user = f"u{k:02d}{int(rng.integers(n_users)):03d}"
            rows.append(f"{user_t.format(user=user)},{ts_t.format(ts=cls.EPOCH0 + 7200)}")
        order = rng.permutation(len(rows))
        text = "user_id,timestamp_utc\n" + "".join(rows[j] + "\n" for j in order)
        return {"text": text, "rows": len(rows), "malformed": malformed, "low_users": low,
                "slot_counts": slot_counts}

    def work(self, i: int) -> Counter:
        return Counter(users=self.active_users, rows=self.logs[i % self.pool]["rows"])

    def run(self, i: int):
        argv = [
            "population", "study", "--input", str(self.paths[i % self.pool]),
            "--phi-grid", GRID_SPEC, "--out-dir", str(self.out_dir),
            "--min-count", str(self.min_count),
        ]
        return cli.main(argv)

    def check(self, i: int, out, stderr: str) -> list[str]:
        k = i % self.pool
        log = self.logs[k]
        problems = checks.equal("exit code", out, 0)
        if out != 0:
            return problems + [f"stderr: {stderr.strip()[-300:]}"]
        problems += checks.equal(
            "rejected rows", len(re.findall(r"UserWarning: .*: (?:bad timestamp|missing field)", stderr)),
            log["malformed"],
        )
        problems += checks.equal(
            "users below --min-count", len(re.findall(r"UserWarning: excluding user", stderr)),
            len(log["low_users"]),
        )
        hist = self.out_dir / "phicrit_hist.csv"
        with open(hist, newline="") as fh:
            kept = sum(int(row["count"]) for row in csv.DictReader(fh))
        problems += checks.equal("users kept", kept, len(log["slot_counts"]))
        agg = self.out_dir / "aggregate_profiles.csv"
        with open(agg, newline="") as fh:
            table = list(csv.reader(fh))
        columns = np.array([[float(x) for x in row[1:]] for row in table[1:]]).T
        totals = sum(log["slot_counts"].values())
        problems += checks.close("aggregate profile before deferral", columns[0], totals / totals.sum())
        problems += checks.pmf_rows(columns[1:], "aggregate_after")
        if k not in self.verified:
            problems += self._per_user_counts(k)
            self.verified.add(k)
        tables = [(self.out_dir / name).read_bytes() for name in sorted(p.name for p in self.out_dir.iterdir())]
        return problems + self.digests.check(k, checks.digest(*tables))

    def _per_user_counts(self, k: int) -> list[str]:
        """Per-user message counts as ingested equal those generated."""
        with warnings.catch_warnings(), contextlib.redirect_stderr(io.StringIO()):
            users = population.ingest(
                self.paths[k], scheme=profiles.SlotScheme.day(self.n), min_count=self.min_count
            )
        want = self.logs[k]["slot_counts"]
        problems = checks.equal("kept user ids", sorted(users), sorted(want))
        for user in sorted(set(users) & set(want)):
            problems += checks.equal(f"messages of {user}", users[user].count, float(want[user].sum()))
            problems += checks.close(f"profile of {user}", users[user].q * users[user].count, want[user])
        return problems


class SimValidate(Workload):
    """Monte Carlo validation of the closed forms on 24-slot profiles."""

    name = "sim-validate"
    n = 24
    n_profiles = 20
    alphas = (1_000, 10_000)
    #: Run time grows with the rate; an odd number of levels, equally often,
    #: puts the median input in the middle of one level rather than between two.
    rate_fractions = (0.2, 0.4, 0.6, 0.8, 1.0)
    cycles = 200
    warmup = 2

    def __init__(self, seed: int, workdir: Path):
        self.configs = self.generate(seed)
        self.pool = len(self.configs)
        self.scheme = profiles.SlotScheme.day(self.n)
        self.digests = checks.RepeatDigests()
        self.shape = {
            "n": self.n, "profiles": self.n_profiles, "alphas": list(self.alphas),
            "rates": "phi_crit * " + "/".join(map(str, self.rate_fractions)),
            "cycles": self.cycles, "warmup": self.warmup, "discipline": "uniform_random",
        }

    @classmethod
    def generate(cls, seed: int) -> list[tuple]:
        rng = _rng(seed, cls.name)
        configs = []
        for k in range(cls.n_profiles):
            q = rng.dirichlet(np.ones(cls.n))
            phi = cls.rate_fractions[k % len(cls.rate_fractions)] * _critical_rate(q)
            for alpha in cls.alphas:
                configs.append((q, alpha, phi, int(rng.integers(2**31))))
        return configs

    def work(self, i: int) -> Counter:
        return Counter(users=1, slot_steps=self.cycles * self.n)

    def run(self, i: int):
        q, alpha, phi, sim_seed = self.configs[i % self.pool]
        profile = profiles.ActivityProfile(self.scheme, q, count=float(alpha))
        cfg = simulate.SimConfig(
            profile=profile,
            strategy=strategies.solve_optimal(profile, phi),
            alpha=alpha,
            cycles=self.cycles,
            warmup_cycles=self.warmup,
            discipline="uniform_random",
            seed=sim_seed,
        )
        return cfg, simulate.empirical_vs_analytic(cfg)

    def check(self, i: int, out, stderr: str) -> list[str]:
        cfg, record = out
        report = record.report
        problems = checks.delay_pmf(record.analytic_pmf, cfg.strategy.phi, self.n)
        problems += checks.equal("messages generated", report.total_count, cfg.alpha * (self.cycles - self.warmup))
        problems += checks.equal("delayed messages", int(report.delay_histogram.sum()), report.delayed_count)
        if report.delayed_count:
            problems += checks.delay_range([report.mean_conditional_delay], self.n, "simulated conditional delay")
            problems += checks.delay_range([record.analytic_conditional_delay], self.n, "conditional delay")
        return problems + self.digests.check(i % self.pool, checks.digest(json.dumps(record.to_dict())))


WORKLOADS = {wl.name: wl for wl in (CohortDay, ProfileWeek, LogIngest, SimValidate)}
