"""The documentation layer is executable: doctests + link integrity.

The public-API docstrings carry runnable examples (``partir_jit``,
``Tactic``, ``AutomaticPartition``, ``mcts_search``, ``SearchResult``,
``describe``, ``canonicalize``, the plan table and the fused
emission of ``repro.spmd.lower``, ``Function.index``, the plan store's
LRU and its ``exact``/``relaxed`` label, the streaming estimator pricing
two envs bit-equal to ``lower -> estimate``, the fault plan, the
pipeline tactic and the cost terms); this module runs them the same way
the CI docs job does (``python -m doctest``), and checks that every
relative link and repo path mentioned in ``README.md`` /
``docs/ARCHITECTURE.md`` exists.
"""

import doctest
import importlib
import os
import subprocess
import sys

import pytest

import repro.api
import repro.auto.faults
import repro.auto.fingerprint
import repro.auto.planstore
import repro.auto.search
import repro.core.actions
import repro.core.pipeline
import repro.ir.function
import repro.models.pipeline
import repro.sim.costmodel
import repro.sim.memory
import repro.sim.terms

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: The documented modules the CI docs job doctests.  (``repro.spmd.lower``
#: by import: the package re-exports the ``lower`` function under the
#: module's name.)
DOCTESTED_MODULES = [repro.api, repro.auto.faults, repro.auto.fingerprint,
                     repro.auto.planstore, repro.auto.search,
                     repro.core.actions, repro.core.pipeline,
                     repro.ir.function, repro.models.pipeline,
                     repro.sim.costmodel, repro.sim.memory, repro.sim.terms,
                     importlib.import_module("repro.spmd.lower")]


@pytest.mark.parametrize("module", DOCTESTED_MODULES,
                         ids=[m.__name__ for m in DOCTESTED_MODULES])
def test_module_doctests_pass(module):
    results = doctest.testmod(module, verbose=False)
    assert results.attempted > 0, f"{module.__name__} has no doctests"
    assert results.failed == 0


#: Span targets ``benchmarks/e2e/spans.py`` still lists although the code
#: is gone (the benchmark's files are not edited by the PR that deletes a
#: layer; its recorder skips a missing target and counts it).
RETIRED_SPAN_TARGETS = {
    ("auto.prior.fit", "repro.auto.prior", "LinearPrior.fit"),
    ("auto.tree.note", "repro.auto.tree", "TreePolicy.note_result"),
    ("auto.fingerprint", "repro.auto.cache", "function_fingerprint"),
    ("auto.fingerprint", "repro.auto.fingerprint", "relaxed_fingerprint"),
    ("spmd.fusion", "repro.spmd.fusion", "fuse_collectives"),
}


def test_benchmark_span_targets_resolve():
    """Every ``(module, attribute path)`` the repo's benchmark wraps for
    its per-layer metrics exists: a rename in ``src/`` cannot silently
    blank a layer (``bench.missing_span_targets`` stays at the retired
    count).  A retired target must *fail* to resolve, so the allowlist
    cannot rot."""
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "e2e_spans", os.path.join(REPO_ROOT, "benchmarks", "e2e", "spans.py"))
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    assert RETIRED_SPAN_TARGETS <= set(spans.TARGETS)
    for layer, module, path in spans.TARGETS:
        # The same resolution Recorder.install performs: parents by
        # getattr, the target itself from its owner's own namespace.
        try:
            owner = importlib.import_module(module)
            *parents, attr = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            resolved = attr in vars(owner)
        except (ImportError, AttributeError):
            resolved = False
        retired = (layer, module, path) in RETIRED_SPAN_TARGETS
        assert resolved != retired, (layer, module, path)


def test_public_api_docstrings_have_examples():
    """The satellite contract: every named public entry point documents a
    runnable example (or, for SearchResult, its counters)."""
    for obj in (repro.api.partir_jit, repro.api.Tactic,
                repro.api.AutomaticPartition, repro.auto.search.mcts_search,
                repro.core.actions.describe):
        assert ">>>" in (obj.__doc__ or ""), obj
    result_doc = repro.auto.search.SearchResult.__doc__ or ""
    assert ">>>" in result_doc


def test_markdown_links_resolve():
    script = os.path.join(REPO_ROOT, "tools", "check_links.py")
    proc = subprocess.run(
        [sys.executable, script, "README.md", "docs/ARCHITECTURE.md"],
        cwd=REPO_ROOT, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr


def test_check_links_catches_breakage(tmp_path):
    bad = tmp_path / "bad.md"
    bad.write_text("see [missing](no/such/file.md) and `src/nope.py`\n")
    script = os.path.join(REPO_ROOT, "tools", "check_links.py")
    proc = subprocess.run(
        [sys.executable, script, str(bad)],
        cwd=REPO_ROOT, capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert "no/such/file.md" in proc.stderr
    assert "src/nope.py" in proc.stderr
