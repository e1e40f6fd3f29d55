"""perfbench/tracing.py's Tracer sees each scan's loop: the census, lemma 1
and the integer scan call their chunk functions directly, so each chunk's
span is a child of its scan's span."""
import importlib
from fractions import Fraction

from test_tracing_targets import _load_tracing


def test_tracer_records_each_scans_chunk_under_the_scan():
    tracing = _load_tracing()
    modules = {layer: importlib.import_module(f"opnbounds.{layer}") for layer in tracing.TARGETS}
    lemmas, enumeration, model = modules["lemmas"], modules["enumeration"], modules["model"]
    system = model.build_system(model.Case.THREE_COPRIME)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.active = True
        lemmas.bucket_census(20000)
        lemmas.lemma1_scan(600)
        enumeration.integer_scan(system, Fraction(8, 3), 4)
    finally:
        tracer.active = False
        tracer.uninstall()
    chunks = [(name, tracer.spans[parent][0] if parent >= 0 else None)
              for name, _, _, parent, _, _ in tracer.spans if name.endswith("_chunk")]
    # the census sieves its range in one chunk
    assert chunks == [("lemmas._census_chunk", "lemmas.bucket_census"),
                      ("lemmas._lemma1_chunk", "lemmas.lemma1_scan"),
                      ("enumeration._scan_chunk", "enumeration.integer_scan")]
