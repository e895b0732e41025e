"""The workloads: their chunks, set-up command and output checks.

A chunk is one `wstsim` CLI invocation; a round is the fixed list of chunks
a workload repeats.  Every chunk's CSV is kept and checked after the timed
phase against the independent models in `models.py`: a per-invocation
check marks that invocation failed, and the same checks on the counts
summed over all invocations decide whether the run is correct.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

import models
from models import ALPHA


@dataclass
class Chunk:
    """One CLI invocation, what it returned and the rows of its CSV."""

    kind: str
    argv: list[str]
    trials: int
    csv: str
    rows: list[dict] = field(default_factory=list)
    code: int | None = None
    error: str = ""
    ok: bool = False  # its output could be checked
    seed: int | None = None
    replay: bool = False  # repeats the inputs of an earlier chunk


def read_csv(path) -> list[dict]:
    lines = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def _grid(lo: int, hi: int, step: int) -> list[float]:
    return [float(v) for v in range(lo, hi + 1, step)]


class Problems(list):
    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.append(message)


def _count(rate: float, n: int, what: str, problems: Problems) -> int:
    """The integer count behind a rate the CLI printed as count / n."""
    k = round(rate * n)
    problems.check(abs(rate * n - k) < 1e-6, f"{what}: rate {rate} is not a count over {n}")
    return k


class Workload:
    """Checks shared by the workloads; each defines counts() and judge().

    counts() turns one invocation's CSV into integer counts per cell and
    checks what the CSV alone must satisfy; judge() compares counts, of one
    invocation or summed over the run, with the model.
    """

    name = ""

    def extra(self) -> list[Chunk]:
        return []

    def noiseless(self, counts: dict, problems: Problems) -> None:
        pass

    def judge_total(self, total: dict, problems: Problems) -> None:
        pass

    def check_chunk(self, chunk: Chunk, model: dict) -> list[str]:
        problems = Problems()
        counts = self.counts(chunk, problems)
        if chunk.kind.endswith("noiseless"):
            self.noiseless(counts, problems)
        else:
            self.judge(counts, model, problems)
        return problems

    def check_total(self, chunks: list[Chunk], model: dict) -> list[str]:
        total = {}
        for c in chunks:
            if c.ok and not c.replay and not c.kind.endswith("noiseless"):
                for key, v in self.counts(c, Problems()).items():
                    total[key] = total.get(key, 0) + v
        problems = Problems()
        self.judge(total, model, problems)
        self.judge_total(total, problems)
        return problems


# --------------------------------------------------------------------------
# repair


class Repair(Workload):
    """End-to-end MDS repair, pair m=2 against its equal-airtime TDMA m=4."""

    name = "repair"
    n, k, d, fragment_bits = 6, 3, 5, 24
    grid = _grid(10, 30, 5)
    trials = 10  # per SNR point and chunk
    schemes = (("pair", 2), ("tdma", 4))

    def _argv(self, scheme: str, m: int, grid: str, trials: int) -> list[str]:
        return [
            "repair", "--n", str(self.n), "--k", str(self.k), "--d", str(self.d),
            "--fragment-bits", str(self.fragment_bits), "--m", str(m),
            "--scheme", scheme, "--decoder", "sphere",
            "--snr-grid", grid, "--trials", str(trials),
        ]

    def round(self) -> list[Chunk]:
        return [
            Chunk(f"repair-{s}", self._argv(s, m, "10:30:5", self.trials),
                  self.trials * len(self.grid), f"repair_{s}.csv")
            for s, m in self.schemes
        ]

    def extra(self) -> list[Chunk]:
        """Noiseless invocations: every rate must be exactly zero."""
        return [
            Chunk(f"repair-{s}-noiseless", self._argv(s, m, "10:30:5", 2) + ["--noiseless"],
                  2 * len(self.grid), f"repair_{s}.csv")
            for s, m in self.schemes
        ]

    def setup_argv(self) -> list[str]:
        return self._argv("pair", 2, "10", 1)

    def _sessions(self, scheme: str, m: int) -> tuple[int, int]:
        """(pair sessions, singleton sessions) per repair trial."""
        blocks = math.ceil(self.fragment_bits / (3 * m))
        if scheme == "pair":
            return blocks * (self.d // 2), blocks * (self.d % 2)
        return 0, blocks * self.d

    def model(self, rng) -> dict:
        """Independent session-error counts per (scheme, SNR): (errors, n).

        The model draws the same mix of pair and singleton sessions as the
        scheme's plan, so its rate estimates the CSV's session_err_rate.
        """
        out = {}
        for scheme, m in self.schemes:
            pairs, singles = self._sessions(scheme, m)
            g = math.gcd(pairs, singles)
            per = 2000 // max(pairs // g, singles // g)
            for db in self.grid:
                e = n = 0
                for users, count in ((2, pairs // g * per), (1, singles // g * per)):
                    if count:
                        e += models.ml_errors(rng, count, users, m, db)
                        n += count
                out[scheme, db] = (e, n)
        return out

    def counts(self, chunk: Chunk, problems: Problems) -> dict:
        scheme, m = next((s, m) for s, m in self.schemes if chunk.kind.startswith(f"repair-{s}"))
        pairs, singles = self._sessions(scheme, m)
        out = {}
        problems.check([float(r["snr_db"]) for r in chunk.rows] == self.grid, "SNR grid differs")
        for row in chunk.rows:
            db = float(row["snr_db"])
            t = int(row["trials"])
            problems.check(row["scheme"] == scheme, f"{db} dB: scheme {row['scheme']}")
            sessions = t * (pairs + singles)
            errored = _count(float(row["session_err_rate"]), sessions, f"{db} dB sessions", problems)
            failed = _count(float(row["share_fail_rate"]), t * self.d, f"{db} dB shares", problems)
            lost = _count(float(row["repair_fail_rate"]), t, f"{db} dB repairs", problems)
            out[scheme, db] = np.array([errored, sessions, failed, lost, t])
        return out

    def judge(self, counts: dict, model: dict, problems: Problems) -> None:
        for (scheme, db), (errored, sessions, failed, lost, t) in counts.items():
            where = f"{scheme} {db} dB"
            problems.check(
                failed >= (self.d - self.k + 1) * lost,
                f"{where}: {lost} failed repairs need > {self.d - self.k} failed shares each, "
                f"but only {failed} shares failed",
            )
            problems.check(failed <= 2 * errored, f"{where}: {failed} failed shares from {errored} errored sessions")
            e_m, n_m = model[scheme, db]
            low = models.two_sample_low(errored, sessions, e_m, n_m)
            high = models.two_sample_high(errored, sessions, e_m, n_m)
            problems.check(
                min(low, high) > ALPHA,
                f"{where}: session error rate {errored}/{sessions} disagrees with the "
                f"independent ML model {e_m}/{n_m} (p = {min(low, high):.2g})",
            )

    def noiseless(self, counts: dict, problems: Problems) -> None:
        problems.check(all(c[0] == c[2] == c[3] == 0 for c in counts.values()),
                       "noiseless repair reported errors")

    def judge_total(self, total: dict, problems: Problems) -> None:
        lost = {s: sum(v[3] for (sc, _), v in total.items() if sc == s) for s, _ in self.schemes}
        tried = {s: sum(v[4] for (sc, _), v in total.items() if sc == s) for s, _ in self.schemes}
        problems.check(
            lost["pair"] * tried["tdma"] < lost["tdma"] * tried["pair"],
            f"pair repairs failed {lost['pair']}/{tried['pair']}, not fewer than "
            f"TDMA's {lost['tdma']}/{tried['tdma']}",
        )


# --------------------------------------------------------------------------
# outage


class Outage(Workload):
    """Monte Carlo outage, K=10 and r=1/20, for the three schemes.

    The 1-bit rate offset (the CLI's own default at r = 0) keeps full-MAC
    outage at about 1 % at 15 dB, so a 2,048-draw chunk sees events in at
    least two SNR cells and the CLI can fit its slope; at offset 0 that
    takes about 50,000 draws, a chunk far too long to calibrate.  The
    per-draw cost of every scheme does not depend on the rate.
    """

    name = "outage"
    K, r, offset = 10, 0.05, 1.0
    grid = _grid(10, 25, 5)
    trials = 2048  # per SNR point and chunk, equal for every scheme
    schemes = ("tdma", "pair", "full-mac")

    def _argv(self, scheme: str, grid: str, trials: int) -> list[str]:
        return [
            "outage", "--scheme", scheme, "--K", str(self.K), "--r", "1/20",
            "--offset", str(self.offset), "--snr-grid", grid, "--trials", str(trials),
        ]

    def round(self) -> list[Chunk]:
        return [
            Chunk(f"outage-{s}", self._argv(s, "10:25:5", self.trials),
                  self.trials * len(self.grid), f"outage_{s}_K{self.K}.csv")
            for s in self.schemes
        ]

    def setup_argv(self) -> list[str]:
        # full-MAC outage is 10 %, 5 % and 3 % at 10, 11 and 12 dB
        return self._argv("full-mac", "10:12:1", 256)

    def _user_rate(self, scheme: str, db: float) -> tuple[float, int]:
        gain = {"tdma": self.K * self.r, "pair": self.K * self.r / 2, "full-mac": self.r}[scheme]
        users = {"tdma": 1, "pair": 2, "full-mac": self.K}[scheme]
        return models.rate_bits(gain, db, self.offset), users

    def model(self, rng) -> dict:
        n = 200_000
        out = {}
        for db in self.grid:
            rate, _ = self._user_rate("pair", db)
            out[db] = (models.pair_outages(rng, n, db, rate), n)
        return out

    def counts(self, chunk: Chunk, problems: Problems) -> dict:
        scheme = chunk.kind.removeprefix("outage-")
        out = {}
        problems.check([float(r["snr_db"]) for r in chunk.rows] == self.grid, "SNR grid differs")
        for row in chunk.rows:
            db = float(row["snr_db"])
            t = int(row["trials"])
            k = int(row["outages"])
            problems.check(row["scheme"] == scheme and t == self.trials, f"{db} dB: wrong scheme or trials")
            problems.check(float(row["p_hat"]) == k / t, f"{db} dB: p_hat is not outages / trials")
            problems.check(float(row["ci_lo"]) <= k / t <= float(row["ci_hi"]),
                           f"{db} dB: p_hat outside its interval")
            out[scheme, db] = np.array([k, t])
        return out

    def judge(self, counts: dict, model: dict, problems: Problems) -> None:
        for (scheme, db), (k, t) in counts.items():
            where = f"{scheme} {db} dB"
            rate, users = self._user_rate(scheme, db)
            single = float(models.single_user_outage(rate, db))
            if scheme == "tdma":
                p = min(models.binom_low(k, t, single), models.binom_high(k, t, single))
                problems.check(p > ALPHA, f"{where}: {k}/{t} outages, closed form {single:.5g} (p = {p:.2g})")
                continue
            bound = 1.0 - (1.0 - single) ** users
            p = models.binom_low(k, t, bound)
            problems.check(p > ALPHA, f"{where}: {k}/{t} outages, below the single-user bound "
                                      f"{bound:.5g} (p = {p:.2g})")
            if scheme == "pair":
                k_m, n_m = model[db]
                p = min(models.two_sample_low(k, t, k_m, n_m), models.two_sample_high(k, t, k_m, n_m))
                problems.check(p > ALPHA, f"{where}: {k}/{t} outages, independent Monte Carlo "
                                          f"{k_m}/{n_m} (p = {p:.2g})")


WORKLOADS = {w.name: w for w in (Repair(), Outage())}
