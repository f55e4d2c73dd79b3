"""External investigators: application knowledge beats inference.

Builds a small source tree whose structure is visible to the C
#include scanner and the makefile investigator, then shows clustering
with and without them -- including forcing two never-co-accessed files
into one project (section 3.3.3's "an external investigator can force
two or more files to be clustered together").

Run:  python examples/investigators_demo.py
"""

from repro import FileSystem
from repro.core import Correlator, SeerParameters
from repro.investigators import (
    CIncludeInvestigator,
    MakefileInvestigator,
    NamingInvestigator,
)


def build_tree():
    fs = FileSystem()
    fs.mkdir("/proj", parents=True)
    fs.create("/proj/widget.h", content="#define WIDGET\n")
    fs.create("/proj/widget.c", content='#include "widget.h"\n')
    fs.create("/proj/gadget.c", content='#include "widget.h"\n')
    fs.create("/proj/Makefile", content=(
        "OBJS = widget.o gadget.o\n"
        "tool: widget.c gadget.c widget.h\n"
        "\tcc -o tool widget.c gadget.c\n"))
    return fs


def show(label, clusters):
    print(label)
    for cluster_id in clusters.cluster_ids():
        members = sorted(clusters.members(cluster_id))
        if len(members) > 1:
            print(f"  {members}")
    if all(len(clusters.members(c)) == 1 for c in clusters.cluster_ids()):
        print("  (only singletons -- no relationships known)")
    print()


def main():
    fs = build_tree()
    parameters = SeerParameters()

    # SEER has observed nothing: no semantic distances at all.
    empty = Correlator(parameters).build_clusters()
    show("Without investigators (and no observed accesses):", empty)

    investigators = [
        CIncludeInvestigator(fs, "/proj"),
        MakefileInvestigator(fs, "/proj"),
        NamingInvestigator(fs, "/proj"),
    ]
    relations = []
    for investigator in investigators:
        found = investigator.investigate()
        name = type(investigator).__name__
        for relation in found:
            print(f"{name}: {sorted(relation.files)} "
                  f"(strength {relation.strength})")
        relations.extend(found)
    print()

    clusters = Correlator(parameters).build_clusters(relations=relations)
    show("With investigators:", clusters)
    print("The whole project clusters from static structure alone -- no "
          "file access was ever observed.")


if __name__ == "__main__":
    main()
