"""The paper's section 5.3 overhead figures, measured here.

Section 5.3 judges SEER by its cost to the user: about 35 us of CPU
per traced call on a 133 MHz Pentium, about 2 CPU minutes to cluster
some 20,000 files, and about 1 KB of memory per tracked file.  Traced
runs print the same three quantities next to the paper's values:

* ``seer.us_per_record`` -- observer plus correlator self time per
  trace record, from the traced pass;
* ``cluster.s_per_1k_files`` -- clustering seconds per thousand files
  clustered, from the traced pass;
* ``correlator.bytes_per_file`` -- from :func:`probe`: a
  ``tracemalloc`` measurement of a fresh correlator fed machine F's
  observed references, made outside every timed pass because
  ``tracemalloc`` slows allocation severalfold.
"""

from __future__ import annotations

import gc
import tracemalloc
from typing import Dict, List, Mapping

from benchmarks.e2e.harness import REFERENCE_TRACE_SEED, RunContext
from repro.core.correlator import Correlator, ObservedReference
from repro.core.parameters import SeerParameters
from repro.observer.observer import Observer
from repro.simulation import SIM_PARAMETERS, simulation_control
from repro.workload import generate_machine_trace, machine_profile

#: (metric, unit, the paper's figure).
PAPER_FIGURES = (
    ("seer.us_per_record", "us",
     "~35 us per traced call (133 MHz Pentium)"),
    ("cluster.s_per_1k_files", "s",
     "~6 s (2 CPU minutes for ~20,000 files)"),
    ("correlator.bytes_per_file", "B", "~1 KB"),
)

#: Days of machine F's trace the memory probe replays.
PROBE_DAYS = {"full": 28.0, "smoke": 2.0}


def observed_references(machine: str, days: float,
                        parameters: SeerParameters = SIM_PARAMETERS
                        ) -> List[ObservedReference]:
    """What SEER's observer forwards for one reference trace."""
    trace = generate_machine_trace(machine_profile(machine),
                                   seed=REFERENCE_TRACE_SEED, days=days)
    references: List[ObservedReference] = []
    observer = Observer(references.append, control=simulation_control(),
                        parameters=parameters, filesystem=trace.kernel.fs,
                        process_table=trace.kernel.processes)
    for record in trace.records:
        observer.handle_record(record)
    return references


def correlator_bytes_per_file(references: List[ObservedReference]) -> float:
    """Bytes a correlator holds per known file after *references*."""
    gc.collect()
    tracemalloc.start()
    try:
        correlator = Correlator(SIM_PARAMETERS)
        for reference in references:
            correlator.handle(reference)
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    files = len(correlator.known_files())
    return held / files if files else 0.0


def probe(context: RunContext) -> Dict[str, float]:
    references = observed_references("F", PROBE_DAYS[context.scale])
    return {"correlator.bytes_per_file": correlator_bytes_per_file(references)}


def table(metrics: Mapping[str, float]) -> str:
    lines = ["paper section 5.3            measured        paper"]
    for name, unit, figure in PAPER_FIGURES:
        value = metrics.get(name, 0.0)
        # Zero: this workload never ran that stage (the service gets
        # references already observed by its clients).
        measured = f"{value:>10.4g} {unit:<4}" if value else f"{'n/a':>15}"
        lines.append(f"{name:<28} {measured} {figure}")
    return "\n".join(lines)
