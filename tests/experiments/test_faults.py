"""Unit tests for the fault-tolerance primitives.

The retry/backoff math, the chaos directive grammar, and the failure ledger
are the deterministic foundation the engine recovery tests build on, so each
is pinned here in isolation: identical inputs must always produce identical
backoffs, directive resolutions, and ledger bytes.
"""

import json
import warnings

import pytest

from repro.config import get_scale
from repro.exceptions import ConfigurationError
from repro.experiments.configs import ExperimentSettings
from repro.experiments.engine import ExperimentEngine, RunSpec
from repro.experiments.faults import (
    LEDGER_FORMAT_VERSION,
    FailureLedger,
    FailureRecord,
    FaultInjector,
    InjectedPermanentError,
    InjectedTransientError,
    JobTimeoutError,
    RetryPolicy,
    TornWriteError,
    WorkerCrashError,
    _parse_directive,
    active_injector,
    init_injector,
    is_transient,
    ledger_path,
    record_traceback,
)
from repro.experiments.store import ArtifactStore
from repro.neural.featurizer import FeaturizerConfig
from repro.neural.matcher import MatcherConfig


@pytest.fixture(scope="module")
def fast_settings() -> ExperimentSettings:
    return ExperimentSettings(
        scale=get_scale("tiny"),
        datasets=("amazon_google",),
        iterations=1,
        budget_per_iteration=8,
        seed_size=8,
        num_seeds=2,
        alphas=(0.5,),
        beta=0.5,
        matcher_config=MatcherConfig(hidden_dims=(24,), epochs=2, batch_size=16,
                                     learning_rate=2e-3, random_state=0),
        featurizer_config=FeaturizerConfig(hash_dim=32),
        base_random_seed=7,
    )


def _specs(settings) -> list[RunSpec]:
    return [RunSpec.create("amazon_google", "random", seed, 0.5, 0.5,
                           "selector", settings)
            for seed in settings.seeds()]


class TestRetryPolicy:
    def test_defaults_are_valid(self):
        policy = RetryPolicy()
        assert policy.max_attempts == 3
        assert policy.timeout is None

    @pytest.mark.parametrize("kwargs", [
        {"max_attempts": 0},
        {"timeout": 0.0},
        {"timeout": -1.0},
    ])
    def test_invalid_fields_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            RetryPolicy(**kwargs)

    def test_backoff_is_deterministic_across_instances(self):
        first = RetryPolicy().backoff_seconds("abcd1234", 1)
        second = RetryPolicy().backoff_seconds("abcd1234", 1)
        assert first == second

    def test_backoff_varies_by_fingerprint_and_attempt(self):
        policy = RetryPolicy()
        assert (policy.backoff_seconds("abcd1234", 0)
                != policy.backoff_seconds("ffff0000", 0))
        assert (policy.backoff_seconds("abcd1234", 0)
                != policy.backoff_seconds("abcd1234", 1))

    def test_backoff_capped_at_maximum(self):
        policy = RetryPolicy()
        for attempt in (10, 16, 30):
            assert 22.5 <= policy.backoff_seconds("fp", attempt) <= 30.0

    def test_jitter_stays_within_spread(self):
        """0.05 s doubling per failed attempt, spread by ±25%."""
        policy = RetryPolicy()
        for attempt in range(9):
            nominal = 0.05 * 2.0 ** attempt
            backoff = policy.backoff_seconds("fp", attempt)
            assert 0.75 * nominal <= backoff <= 1.25 * nominal

    @pytest.mark.parametrize("fingerprint, attempt, seconds", [
        ("fp", 0, 0.038648856414051),
        ("fp", 1, 0.12177489207749602),
        ("abcd1234", 3, 0.3490102615787206),
        ("put:abcd1234", 0, 0.04191901917905058),
        ("fp", 12, 22.526629826758672),
    ])
    def test_backoff_schedule_is_pinned(self, fingerprint, attempt, seconds):
        """The schedule is fixed: every policy backs off by the same floats."""
        for policy in (RetryPolicy(), RetryPolicy(max_attempts=7, timeout=9.0)):
            assert policy.backoff_seconds(fingerprint, attempt) == seconds

    def test_retryable_classification(self):
        policy = RetryPolicy(max_attempts=2)
        assert policy.retryable(InjectedTransientError("x"), 1)
        assert policy.retryable(JobTimeoutError("x"), 1)
        assert policy.retryable(WorkerCrashError("x"), 1)
        assert policy.retryable(TornWriteError("x"), 1)
        # Attempt budget exhausted.
        assert not policy.retryable(InjectedTransientError("x"), 2)
        # Permanent error classes never retry.
        assert not policy.retryable(InjectedPermanentError("x"), 1)
        assert not policy.retryable(ValueError("x"), 1)
        assert not policy.retryable(ConfigurationError("x"), 1)

    def test_is_transient_covers_infrastructure_errors(self):
        assert is_transient(ConnectionError("reset"))
        assert is_transient(TimeoutError("slow"))
        assert is_transient(OSError("disk"))
        assert not is_transient(KeyError("missing"))


class TestDirectiveGrammar:
    def test_bare_kind(self):
        directive = _parse_directive("kill")
        assert (directive.kind, directive.rank, directive.attempt) == \
            ("kill", 0, 0)

    def test_rank_and_attempt(self):
        directive = _parse_directive("raise@2:1")
        assert (directive.kind, directive.rank, directive.attempt) == \
            ("raise", 2, 1)

    def test_value_with_rank(self):
        directive = _parse_directive("hang=20@1")
        assert directive.kind == "hang"
        assert directive.value == 20.0
        assert directive.rank == 1

    def test_attempt_without_rank(self):
        directive = _parse_directive("torn:1")
        assert (directive.kind, directive.rank, directive.attempt) == \
            ("torn", 0, 1)

    @pytest.mark.parametrize("text", [
        "explode@0",          # unknown kind
        "raise@x",            # non-integer rank
        "raise@0:y",          # non-integer attempt
        "hang=abc@0",         # non-numeric value
        "kill@-1",            # negative rank
    ])
    def test_malformed_directives_rejected(self, text):
        with pytest.raises(ConfigurationError):
            _parse_directive(text)

    def test_from_spec_blank_means_off(self):
        assert FaultInjector.from_spec(None) is None
        assert FaultInjector.from_spec("") is None
        assert FaultInjector.from_spec("  ,  ") is None

    def test_from_spec_parses_comma_separated_list(self):
        injector = FaultInjector.from_spec("kill@0, raise@1:0, hang=5@2")
        assert injector is not None
        assert [d.kind for d in injector.directives] == \
            ["kill", "raise", "hang"]


class TestFaultInjector:
    def test_resolve_binds_ranks_to_fingerprints(self, fast_settings):
        specs = _specs(fast_settings)
        injector = FaultInjector.from_spec("raise@1").resolve(specs)
        directive, = injector.directives
        assert directive.fingerprint == specs[1].fingerprint()

    def test_resolve_rejects_out_of_range_rank(self, fast_settings):
        specs = _specs(fast_settings)
        with pytest.raises(ConfigurationError):
            FaultInjector.from_spec("raise@9").resolve(specs)

    def test_fire_matches_fingerprint_and_attempt(self, fast_settings):
        specs = _specs(fast_settings)
        injector = FaultInjector.from_spec("raise@0:1").resolve(specs)
        # Wrong attempt and wrong job: no-ops.
        injector.fire(specs[0].fingerprint(), 0)
        injector.fire(specs[1].fingerprint(), 1)
        with pytest.raises(InjectedTransientError):
            injector.fire(specs[0].fingerprint(), 1)

    def test_permanent_directive_raises_permanent_error(self, fast_settings):
        specs = _specs(fast_settings)
        injector = FaultInjector.from_spec("permanent@0").resolve(specs)
        with pytest.raises(InjectedPermanentError):
            injector.fire(specs[0].fingerprint(), 0)

    def test_kills_identifies_the_directed_victim(self, fast_settings):
        specs = _specs(fast_settings)
        injector = FaultInjector.from_spec("kill@0").resolve(specs)
        assert injector.kills(specs[0].fingerprint(), 0)
        assert not injector.kills(specs[0].fingerprint(), 1)
        assert not injector.kills(specs[1].fingerprint(), 0)

    def test_torn_write_counts_per_fingerprint(self, fast_settings):
        specs = _specs(fast_settings)
        injector = FaultInjector.from_spec("torn@0").resolve(specs)
        fingerprint = specs[0].fingerprint()
        # The first write tears; the retried write lands clean.
        assert injector.tear_next_write(fingerprint)
        assert not injector.tear_next_write(fingerprint)
        # Undirected jobs never tear.
        assert not injector.tear_next_write(specs[1].fingerprint())

    def test_torn_attempt_selects_which_write_tears(self, fast_settings):
        specs = _specs(fast_settings)
        injector = FaultInjector.from_spec("torn@0:1").resolve(specs)
        fingerprint = specs[0].fingerprint()
        assert not injector.tear_next_write(fingerprint)
        assert injector.tear_next_write(fingerprint)
        assert not injector.tear_next_write(fingerprint)

    def test_process_injector_install_and_clear(self, fast_settings):
        specs = _specs(fast_settings)
        injector = FaultInjector.from_spec("raise@0").resolve(specs)
        assert active_injector() is None
        try:
            init_injector(injector)
            assert active_injector() is injector
        finally:
            init_injector(None)
        assert active_injector() is None


class TestFailureLedger:
    def _record(self, spec: RunSpec) -> FailureRecord:
        try:
            raise InjectedPermanentError("chaos: injected permanent failure")
        except InjectedPermanentError as error:
            return FailureRecord.from_failure(
                spec, spec.fingerprint(), error, attempts=2,
                tracebacks=(record_traceback(error),),
                elapsed_seconds=(0.51234567, 0.25),
            )

    def test_ledger_path_is_a_store_sibling(self, tmp_path):
        path = ledger_path(tmp_path / "artifacts")
        assert path == tmp_path / "artifacts.failures.json"

    def test_round_trip(self, tmp_path, fast_settings):
        spec = _specs(fast_settings)[0]
        ledger = FailureLedger(tmp_path / "store.failures.json")
        ledger.record(self._record(spec))
        ledger.save()

        reloaded = FailureLedger(tmp_path / "store.failures.json")
        assert len(reloaded) == 1
        assert spec.fingerprint() in reloaded
        entry = reloaded.entries[spec.fingerprint()]
        assert entry.spec == spec.to_dict()
        assert entry.error_type == "InjectedPermanentError"
        assert entry.attempts == 2
        assert entry.elapsed_seconds == (0.512346, 0.25)  # rounded to 6dp
        assert "InjectedPermanentError" in entry.tracebacks[0]

    def test_format_pin(self, tmp_path, fast_settings):
        """The on-disk layout is part of the public interface: pin it."""
        spec = _specs(fast_settings)[0]
        ledger = FailureLedger(tmp_path / "store.failures.json")
        ledger.record(self._record(spec))
        payload = json.loads(ledger.save().read_text())
        assert payload["format_version"] == LEDGER_FORMAT_VERSION == 1
        assert set(payload) == {"format_version", "failures"}
        entry = payload["failures"][spec.fingerprint()]
        assert set(entry) == {"spec", "error_type", "error", "attempts",
                              "tracebacks", "elapsed_seconds", "quarantined"}
        assert entry["quarantined"] is False

    def test_empty_ledger_removes_the_file(self, tmp_path, fast_settings):
        spec = _specs(fast_settings)[0]
        path = tmp_path / "store.failures.json"
        ledger = FailureLedger(path)
        ledger.record(self._record(spec))
        ledger.save()
        assert path.exists()
        assert ledger.discard(spec.fingerprint())
        assert not ledger.discard(spec.fingerprint())  # already gone
        ledger.save()
        assert not path.exists()

    def test_version_mismatch_raises(self, tmp_path):
        path = tmp_path / "store.failures.json"
        path.write_text(json.dumps({"format_version": 999, "failures": {}}))
        with pytest.raises(ConfigurationError):
            FailureLedger(path)

    @pytest.mark.parametrize("text", ["{not json", "[]", "null", "3"],
                             ids=["syntax", "list", "null", "number"])
    def test_corrupt_ledger_warns_and_starts_fresh(self, tmp_path, text,
                                                   fast_settings):
        path = tmp_path / "store.failures.json"
        path.write_text(text)
        with pytest.warns(UserWarning, match="corrupt failure ledger"):
            ledger = FailureLedger(path)
        assert len(ledger) == 0

        # One successful store-backed run replaces the corrupt file...
        spec = _specs(fast_settings)[0]
        with pytest.warns(UserWarning, match="corrupt failure ledger"):
            ExperimentEngine(fast_settings,
                             store=ArtifactStore(tmp_path / "store")).run([spec])
        assert not path.exists()
        # ...so the next run, served from the store, warns nothing.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            engine = ExperimentEngine(fast_settings,
                                      store=ArtifactStore(tmp_path / "store"))
            engine.run([spec])
        assert engine.last_report.from_store == 1

    def test_corrupt_entry_skipped_with_warning(self, tmp_path, fast_settings):
        spec = _specs(fast_settings)[0]
        good = self._record(spec)
        payload = {"format_version": LEDGER_FORMAT_VERSION,
                   "failures": {spec.fingerprint(): good.to_dict(),
                                "deadbeef": {"bogus": True}}}
        path = tmp_path / "store.failures.json"
        path.write_text(json.dumps(payload))
        with pytest.warns(UserWarning, match="corrupt ledger entry"):
            ledger = FailureLedger(path)
        assert ledger.fingerprints() == (spec.fingerprint(),)
