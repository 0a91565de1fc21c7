"""Per-rule fixture tests: each rule fires on its positive fixture and stays
silent on the matching negative fixture.

Every fixture is an in-memory module run through :func:`lint_source` with
every rule active; the assertions keep the rule under test's findings and pin
rule *and* location — a rule that fires on the wrong line is as broken as one
that does not fire.
"""

from __future__ import annotations

import textwrap

import pytest

from repro.analysis import lint_source


def findings_for(source: str, rule: str):
    kept, _ = lint_source(textwrap.dedent(source), "fixture.py")
    return [finding for finding in kept if finding.rule == rule]


# --------------------------------------------------------------------------- #
# ND — nondeterminism
# --------------------------------------------------------------------------- #
class TestND001BuiltinHash:
    def test_flags_builtin_hash(self):
        findings = findings_for(
            """
            def signature(token):
                return hash(token) % 100
            """, "ND001")
        assert [f.line for f in findings] == [3]

    def test_ignores_hashlib_and_methods(self):
        findings = findings_for(
            """
            import hashlib

            def signature(token):
                digest = hashlib.sha256(token.encode()).hexdigest()
                return obj.hash(token)
            """, "ND001")
        assert findings == []


class TestND002BuiltinId:
    def test_flags_builtin_id(self):
        findings = findings_for(
            """
            def key(obj):
                return id(obj)
            """, "ND002")
        assert [f.line for f in findings] == [3]

    def test_ignores_id_attribute_and_shadowed(self):
        findings = findings_for(
            """
            def key(record):
                return record.id
            """, "ND002")
        assert findings == []


class TestND003GlobalRng:
    def test_flags_stdlib_and_legacy_numpy(self):
        findings = findings_for(
            """
            import random
            import numpy as np

            def sample():
                a = random.random()
                b = np.random.rand(3)
                random.seed(0)
                return a, b
            """, "ND003")
        assert [f.line for f in findings] == [6, 7, 8]

    def test_allows_seeded_generators(self):
        findings = findings_for(
            """
            import numpy as np

            def sample(seed):
                rng = np.random.default_rng(seed)
                other = np.random.Generator(np.random.PCG64(seed))
                return rng.random(), other.random()
            """, "ND003")
        assert findings == []

    def test_rng_module_is_exempt(self):
        source = textwrap.dedent(
            """
            import numpy as np

            def seed_everything(seed):
                np.random.seed(seed)
            """)
        kept, _ = lint_source(source, "_rng.py")
        assert kept == []


class TestND004WallClock:
    def test_flags_wall_clock_in_fingerprint_function(self):
        findings = findings_for(
            """
            import time

            def settings_fingerprint(settings):
                return {"stamp": time.time()}
            """, "ND004")
        assert [f.line for f in findings] == [5]

    def test_allows_wall_clock_outside_hashed_paths(self):
        findings = findings_for(
            """
            import time

            def measure(fn):
                start = time.perf_counter()
                fn()
                return time.perf_counter() - start
            """, "ND004")
        assert findings == []


class TestND005UnorderedIteration:
    def test_flags_set_iterated_into_ordered_output(self):
        findings = findings_for(
            """
            def tokens(texts):
                out = []
                for token in set(texts):
                    out.append(token)
                return out
            """, "ND005")
        assert [f.line for f in findings] == [4]

    def test_allows_sorted_and_membership(self):
        findings = findings_for(
            """
            def tokens(texts):
                for token in sorted(set(texts)):
                    yield token
                seen = set(texts)
                return "a" in seen
            """, "ND005")
        assert findings == []

    def test_allows_order_insensitive_aggregation(self):
        findings = findings_for(
            """
            def total(values):
                return sum(v for v in set(values))
            """, "ND005")
        assert findings == []


# --------------------------------------------------------------------------- #
# SP — spawn safety
# --------------------------------------------------------------------------- #
class TestSP001UnpicklableTask:
    def test_flags_lambda_submitted_to_pool(self):
        findings = findings_for(
            """
            def run(executor, items):
                return executor.submit(lambda x: x + 1, items)
            """, "SP001")
        assert [f.line for f in findings] == [3]

    def test_flags_local_function_mapped(self):
        findings = findings_for(
            """
            def run(pool, items):
                def job(item):
                    return item + 1
                return pool.map(job, items)
            """, "SP001")
        assert [f.line for f in findings] == [5]

    def test_allows_top_level_callables(self):
        findings = findings_for(
            """
            def job(item):
                return item + 1

            def run(executor, items):
                return executor.submit(job, items)
            """, "SP001")
        assert findings == []

    def test_builtin_map_is_not_a_pool(self):
        findings = findings_for(
            """
            def run(items):
                return list(map(lambda x: x + 1, items))
            """, "SP001")
        assert findings == []


class TestSP002GlobalMutation:
    def test_flags_global_statement_outside_initializer(self):
        findings = findings_for(
            """
            _REGISTRY = {}

            def register(name, value):
                global _REGISTRY
                _REGISTRY[name] = value
            """, "SP002")
        assert [f.line for f in findings] == [5]

    def test_allows_pool_initializers(self):
        findings = findings_for(
            """
            _WORKER_STATE = None

            def _init_worker(state):
                global _WORKER_STATE
                _WORKER_STATE = state
            """, "SP002")
        assert findings == []


# --------------------------------------------------------------------------- #
# FP — fingerprint hygiene
# --------------------------------------------------------------------------- #
class TestFP001FingerprintFields:
    def test_flags_hand_enumerated_payload(self):
        findings = findings_for(
            """
            def settings_fingerprint(settings):
                payload = {
                    "scale": settings.scale,
                    "iterations": settings.iterations,
                    "seed": settings.seed,
                }
                return payload
            """, "FP001")
        assert [f.line for f in findings] == [3]

    def test_allows_fingerprint_fields_derived_payloads(self):
        findings = findings_for(
            """
            from repro._fingerprints import fingerprint_fields

            def settings_fingerprint(settings):
                fields = fingerprint_fields(type(settings))
                payload = {
                    "scale": settings.scale,
                    "iterations": settings.iterations,
                    "seed": settings.seed,
                }
                return payload
            """, "FP001")
        assert findings == []

    def test_ignores_small_dicts_outside_fingerprints(self):
        findings = findings_for(
            """
            def as_row(result):
                return {
                    "dataset": result.dataset,
                    "method": result.method,
                    "f1": result.f1,
                }
            """, "FP001")
        assert findings == []


class TestFP002NonCanonicalHash:
    def test_flags_repr_and_unsorted_dumps(self):
        findings = findings_for(
            """
            import json

            def fingerprint(config):
                payload = {"value": repr(config.alpha)}
                return json.dumps(payload)
            """, "FP002")
        assert [f.line for f in findings] == [5, 6]

    def test_allows_canonical_json(self):
        findings = findings_for(
            """
            import json

            def fingerprint(config):
                return json.dumps({"alpha": config.alpha}, sort_keys=True)
            """, "FP002")
        assert findings == []

    def test_flags_repr_in_content_hash_callers(self):
        findings = findings_for(
            """
            from repro._fingerprints import content_hash

            def digest(config):
                return content_hash({"alpha": repr(config.alpha)})
            """, "FP002")
        assert [f.line for f in findings] == [5]

    def test_ignores_repr_in_error_messages(self):
        findings = findings_for(
            """
            def fingerprint(config):
                if config is None:
                    raise ValueError(f"bad config {config!r}")
                return {"alpha": config.alpha}
            """, "FP002")
        assert findings == []


# --------------------------------------------------------------------------- #
# MU — mutation hazards
# --------------------------------------------------------------------------- #
class TestMU001MutableDefault:
    def test_flags_literal_and_constructor_defaults(self):
        findings = findings_for(
            """
            def collect(item, seen=[], cache=dict()):
                seen.append(item)
                return seen, cache
            """, "MU001")
        assert [f.line for f in findings] == [2, 2]

    def test_allows_none_and_immutable_defaults(self):
        findings = findings_for(
            """
            def collect(item, seen=None, label="x", count=0):
                seen = [] if seen is None else seen
                seen.append(item)
                return seen
            """, "MU001")
        assert findings == []


class TestMU002ReadOnlyWrite:
    def test_flags_writes_to_cached_matrix(self):
        findings = findings_for(
            """
            def train(dataset, settings, scenario):
                features = get_feature_matrix(dataset, settings, scenario)
                features[0] = 1.0
                features += 2.0
                features.sort()
                return features
            """, "MU002")
        assert [f.line for f in findings] == [4, 5, 6]

    def test_flags_setflags_write_true_anywhere(self):
        findings = findings_for(
            """
            def defeat(array):
                array.setflags(write=True)
                return array
            """, "MU002")
        assert [f.line for f in findings] == [3]

    def test_allows_copies(self):
        findings = findings_for(
            """
            def train(dataset, settings, scenario):
                features = get_feature_matrix(dataset, settings, scenario).copy()
                local = features
                other = compute(dataset)
                other[0] = 1.0
                return local
            """, "MU002")
        assert findings == []


def test_syntax_errors_are_findings_not_crashes():
    kept, suppressed = lint_source("def broken(:\n    pass\n", "broken.py")
    assert suppressed == []
    assert [f.rule for f in kept] == ["RL000"]
    assert kept[0].line == 1


@pytest.mark.parametrize("rule", ["ND001", "ND002", "ND003", "ND004", "ND005",
                                  "SP001", "SP002", "FP001", "FP002",
                                  "MU001", "MU002"])
def test_every_rule_documents_its_history(rule):
    from repro.analysis import rule_class

    cls = rule_class(rule)
    assert cls.summary, rule
    assert cls.history, rule
