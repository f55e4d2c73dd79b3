"""The end-to-end SEER benchmark: four workloads, named metrics, and a
per-layer breakdown from a separate traced run.

``BENCHMARK.json`` at the repository root declares the workloads and
metrics; ``README.md`` here explains them.  Entry points:

* ``python3 benchmarks/e2e/run.py --workload W --seed N --seconds S
  --trace 0|1`` -- one run of one workload, ending in one JSON line;
* ``PYTHONPATH=src python -m benchmarks.e2e run --seed N [--trace]``
  -- every workload, each in a fresh process, as one JSON document;
* ``PYTHONPATH=src python -m benchmarks.e2e compare BASE.json... --
  CHANGE.json...`` -- medians, quartiles and a verdict per metric.
"""
