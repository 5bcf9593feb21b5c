"""Determinism reference for the simulation substrate.

:mod:`repro.bench.golden` digests a trace log (:func:`trace_digest`)
and the canonical golden scenario (:func:`golden_trace_digest`); the
digest is the definition of "same behaviour" every optimization is
judged against.  Performance is measured by ``perfbench/run.py``, the
workloads ``BENCHMARK.json`` declares; ``repro-mobility report``
renders the committed ``BENCH_PR*.json`` history.
"""
