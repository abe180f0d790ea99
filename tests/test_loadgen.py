"""Load-generator determinism: same seed, same bytes, any concurrency.

Three layers of the serving determinism contract (docs/SERVING.md):

* the generated request stream is a pure function of ``(seed,
  config)`` — pinned by byte-comparing canonical traces and by golden
  first-20-request fixtures for the Zipfian and bursty generators
  (regenerate with ``--update-golden``, review like source);
* the decision log is byte-identical at any ``clients``/``window``
  combination — the reorder buffer makes concurrency invisible;
* structural invariants: contiguous ascending seqs, monotone arrival
  times, commits trailing their own conflict.
"""

from __future__ import annotations

import difflib
import hashlib
import json
import pathlib
import threading

import numpy as np
import pytest

from repro.errors import InvalidParameterError, SimulationError
from repro.htm.conflict_policy import CyclePolicy
from repro.serve.loadgen import (
    LoadGenConfig,
    PhaseSpec,
    _burst_rates,
    default_config,
    generate,
    request_trace_line,
    zipf_cdf,
)
from repro.serve.replay import run_replay
from repro.serve.service import CommitReport, ConflictRequest

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"

#: Small three-phase schedule (same shape as the default) that keeps
#: these tests fast while still crossing a phase boundary.
SMALL = default_config(quick=True).scaled(300)


def trace(seed, config) -> str:
    return "".join(
        request_trace_line(e) + "\n" for e in generate(seed, config)
    )


class TestStreamDeterminism:
    def test_same_seed_same_bytes(self):
        assert trace(3, SMALL) == trace(3, SMALL)

    def test_different_seed_different_bytes(self):
        assert trace(3, SMALL) != trace(4, SMALL)

    def test_none_seed_is_deterministic_too(self):
        assert trace(None, SMALL) == trace(None, SMALL)

    def test_seqs_are_contiguous_and_arrivals_monotone(self):
        last_arrival = 0.0
        for i, event in enumerate(generate(3, SMALL)):
            assert event.seq == i
            assert event.arrival_us >= last_arrival
            last_arrival = event.arrival_us

    def test_commit_trails_its_own_conflict(self):
        prev = None
        for event in generate(3, SMALL):
            if isinstance(event, CommitReport):
                assert prev is not None
                assert event.client_id == prev.client_id
                assert event.key == prev.key
                assert event.arrival_us == prev.arrival_us
            prev = event

    def test_phase_boundaries_in_order(self):
        phases = [e.phase for e in generate(3, SMALL)]
        assert phases == sorted(phases)
        assert set(phases) == {0, 1, 2}

    def test_whole_quick_stream_is_pinned(self):
        """All three phases of the seed-3 quick stream (14,007 events),
        where the golden files hold the first 20 of phase 0."""
        text = trace(3, default_config(quick=True))
        assert text.count("\n") == 14_007
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "be259f87a99a366d57216a62c0de67675918a400aef23708eee7eadc9d495d36"
        )


GOLDEN_CASES = {
    # the default Zipf-skewed schedule: pins key skew + client draws
    "loadgen_zipf_first20": lambda: default_config(quick=True),
    # burst-dominated single phase: pins the on/off modulated arrivals
    "loadgen_burst_first20": lambda: LoadGenConfig(
        phases=(
            PhaseSpec(
                conflicts=64,
                mu_cycles=100.0,
                k_p=1.0,
                age_mean=200.0,
                rate=0.01,
                burst_rate=2.0,
                burst_len=4,
                burst_every=8,
            ),
        ),
        n_keys=16,
        zipf_s=1.5,
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_first20_matches_golden(name, request):
    """First 20 generated requests, byte for byte."""
    events = []
    for event in generate(3, GOLDEN_CASES[name]()):
        events.append(event)
        if len(events) == 20:
            break
    text = "".join(request_trace_line(e) + "\n" for e in events)
    golden = GOLDEN_DIR / f"{name}.jsonl"
    if request.config.getoption("--update-golden"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        golden.write_text(text)
        pytest.skip(f"golden updated: {golden}")
    assert golden.exists(), (
        f"missing {golden}; generate it with --update-golden"
    )
    expected = golden.read_text()
    if text != expected:
        diff = "\n".join(
            difflib.unified_diff(
                expected.splitlines(),
                text.splitlines(),
                fromfile=str(golden),
                tofile="current",
                lineterm="",
                n=1,
            )
        )
        pytest.fail(
            f"request stream drifted from golden (intentional? rerun "
            f"with --update-golden and review):\n{diff[:4000]}"
        )


class TestDecisionLogConcurrencyInvariance:
    def test_log_identical_at_any_concurrency(self):
        """The tentpole property: clients/window never leak into the
        decision sequence."""
        logs = [
            run_replay(3, SMALL, clients=c, window=w).decision_log
            for c, w in ((1, 1), (3, 2), (16, 64))
        ]
        assert logs[0] == logs[1] == logs[2]
        assert len(logs[0]) == SMALL.total_conflicts

    def test_log_depends_on_seed(self):
        a = run_replay(3, SMALL, clients=4).decision_log
        b = run_replay(4, SMALL, clients=4).decision_log
        assert a != b

    def test_log_lines_are_canonical_json(self):
        for line in run_replay(3, SMALL, clients=2).decision_log:
            doc = json.loads(line)
            assert (
                json.dumps(doc, sort_keys=True, separators=(",", ":"))
                == line
            )
            assert doc["action"] in ("grant", "abort")


class _RaisesOnce(CyclePolicy):
    """Grants one cycle per conflict, except that decision ``at`` raises."""

    name = "RAISES_ONCE"

    def __init__(self, at: int) -> None:
        self.at = at
        self.calls = 0

    def decide(self, ctx, rng) -> int:
        self.calls += 1
        if self.calls == self.at:
            raise RuntimeError("policy failed")
        return 1


class TestReplayFailure:
    def test_raising_decision_fails_the_replay_without_hanging(self):
        """A decision that raises kills no client: the replay serves the
        rest of the stream, then raises naming the seq.  (A client that
        died would leave its bounded queue full and the producer
        blocked on ``put`` forever.)"""
        config = default_config(quick=True)
        policy = _RaisesOnce(at=100)
        outcome = {}

        def replay() -> None:
            try:
                outcome["report"] = run_replay(
                    3, clients=4, quick=True, policy=policy
                )
            except SimulationError as exc:
                outcome["error"] = exc

        thread = threading.Thread(target=replay, daemon=True)
        thread.start()
        thread.join(60.0)
        assert not thread.is_alive(), "run_replay hung on a raising decision"
        assert "report" not in outcome, "run_replay reported success"
        seq = [e.seq for e in generate(3, config)
               if isinstance(e, ConflictRequest)][99]
        assert f"seq {seq} raised" in str(outcome["error"])
        assert isinstance(outcome["error"].__cause__, RuntimeError)
        assert policy.calls == config.total_conflicts  # served to the end


class TestGenerators:
    def test_zipf_cdf_is_a_skewed_cdf(self):
        cdf = zipf_cdf(100, 1.2)
        assert cdf.shape == (100,)
        assert np.all(np.diff(cdf) > 0)
        assert cdf[-1] == pytest.approx(1.0)
        assert cdf[0] > 1.0 / 100  # rank 1 carries more than uniform

    def test_burst_windows(self):
        phase = PhaseSpec(
            conflicts=20,
            mu_cycles=1.0,
            k_p=1.0,
            age_mean=1.0,
            rate=0.5,
            burst_rate=4.0,
            burst_len=2,
            burst_every=5,
        )
        rates = _burst_rates(phase)
        assert list(rates[:7]) == [4.0, 4.0, 0.5, 0.5, 0.5, 4.0, 4.0]

    def test_scaled_preserves_shape(self):
        config = default_config(quick=True)
        small = config.scaled(300)
        assert small.total_conflicts == 300
        assert len(small.phases) == len(config.phases)
        assert [p.mu_cycles for p in small.phases] == [
            p.mu_cycles for p in config.phases
        ]

    def test_default_config_sizes(self):
        assert default_config(quick=True).total_conflicts == 10_000
        assert default_config(quick=False).total_conflicts == 1_000_000


class TestValidation:
    def test_scaled_too_small(self):
        with pytest.raises(InvalidParameterError, match="conflicts"):
            default_config(quick=True).scaled(2)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"conflicts": 0},
            {"k_p": 0.0},
            {"k_p": 1.5},
            {"commit_ratio": 1.1},
            {"mu_cycles": 0.0},
            {"rate": -1.0},
            {"burst_every": 0},
        ],
    )
    def test_bad_phase_rejected(self, kwargs):
        base = dict(conflicts=10, mu_cycles=1.0, k_p=1.0, age_mean=1.0)
        base.update(kwargs)
        with pytest.raises(InvalidParameterError):
            PhaseSpec(**base)

    def test_bad_config_rejected(self):
        phase = PhaseSpec(conflicts=10, mu_cycles=1.0, k_p=1.0, age_mean=1.0)
        with pytest.raises(InvalidParameterError, match="phase"):
            LoadGenConfig(phases=())
        with pytest.raises(InvalidParameterError, match="zipf_s"):
            LoadGenConfig(phases=(phase,), zipf_s=0.0)
        with pytest.raises(InvalidParameterError, match="n_keys"):
            LoadGenConfig(phases=(phase,), n_keys=0)

    def test_replay_rejects_bad_concurrency(self):
        with pytest.raises(InvalidParameterError, match="clients"):
            run_replay(3, SMALL, clients=0)
        with pytest.raises(InvalidParameterError, match="window"):
            run_replay(3, SMALL, window=0)


class TestCli:
    def test_loadgen_writes_validated_artifact_and_logs(self, tmp_path):
        from benchmarks import schema
        from repro.serve.cli import loadgen_main

        out = tmp_path / "BENCH_serve.json"
        log = tmp_path / "decisions.jsonl"
        trace = tmp_path / "requests.jsonl"
        rc = loadgen_main(
            [
                "--quick",
                "--seed",
                "3",
                "--requests",
                "300",
                "--out",
                str(out),
                "--decision-log",
                str(log),
                "--request-trace",
                str(trace),
            ]
        )
        assert rc == 0
        payload = schema.validate_serve_payload(json.loads(out.read_text()))
        assert payload["conflicts"] == 300
        assert len(log.read_text().splitlines()) == 300
        assert trace.read_text().splitlines()[0].startswith('{"age"')

    def test_loadgen_rerun_is_byte_identical(self, tmp_path):
        from repro.serve.cli import loadgen_main

        logs = []
        for clients, name in ((2, "a"), (9, "b")):
            log = tmp_path / f"{name}.jsonl"
            loadgen_main(
                [
                    "--quick",
                    "--seed",
                    "3",
                    "--requests",
                    "200",
                    "--clients",
                    str(clients),
                    "--out",
                    str(tmp_path / f"bench_{name}.json"),
                    "--decision-log",
                    str(log),
                ]
            )
            logs.append(log.read_bytes())
        assert logs[0] == logs[1]

    def test_serve_smoke_summarizes_regimes(self, capsys):
        from repro.serve.cli import serve_main

        rc = serve_main(["--seed", "7", "--requests", "150"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "conflicts" in out and "regime" in out

    def test_serve_rejects_unknown_policy(self, capsys):
        from repro.serve.cli import serve_main

        assert serve_main(["--requests", "50", "--policy", "NOPE"]) == 1
        assert "unknown" in capsys.readouterr().err

    def test_repro_dispatch(self, tmp_path, monkeypatch):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        assert main(["loadgen", "--quick", "--seed", "3",
                     "--requests", "120"]) == 0
        assert (tmp_path / "BENCH_serve.json").exists()
