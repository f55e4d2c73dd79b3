"""Tests for the external investigators (paper section 3.2)."""

import pytest

from repro.core.clustering import Relation
from repro.core.correlator import Correlator
from repro.core.parameters import SeerParameters
from repro.fs import FileSystem
from repro.investigators import (
    CIncludeInvestigator,
    HotLinkInvestigator,
    MakefileInvestigator,
    NamingInvestigator,
)
from repro.investigators.makefile import expand_variables, parse_makefile


@pytest.fixture
def fs():
    filesystem = FileSystem()
    filesystem.mkdir("/proj", parents=True)
    filesystem.mkdir("/usr/include", parents=True)
    return filesystem


class TestCIncludeInvestigator:
    def test_quoted_include_resolved_locally(self, fs):
        fs.create("/proj/main.c", content='#include "defs.h"\nint main(){}\n')
        fs.create("/proj/defs.h", content="#define X 1\n")
        relations = CIncludeInvestigator(fs, "/proj").investigate()
        assert len(relations) == 1
        assert set(relations[0].files) == {"/proj/main.c", "/proj/defs.h"}

    def test_angle_include_resolved_on_path(self, fs):
        fs.create("/usr/include/stdio.h", content="")
        fs.create("/proj/main.c", content="#include <stdio.h>\n")
        relations = CIncludeInvestigator(fs, "/proj").investigate()
        assert set(relations[0].files) == {"/proj/main.c", "/usr/include/stdio.h"}

    def test_unresolvable_include_skipped(self, fs):
        fs.create("/proj/main.c", content='#include "nothere.h"\n')
        assert CIncludeInvestigator(fs, "/proj").investigate() == []

    def test_whitespace_variants_parsed(self, fs):
        fs.create("/proj/defs.h", content="")
        fs.create("/proj/main.c", content='  #  include   "defs.h"\n')
        relations = CIncludeInvestigator(fs, "/proj").investigate()
        assert len(relations) == 1

    def test_non_c_files_ignored(self, fs):
        fs.create("/proj/notes.txt", content='#include "defs.h"\n')
        fs.create("/proj/defs.h", content="")
        assert CIncludeInvestigator(fs, "/proj").investigate() == []

    def test_multiple_includes_one_relation(self, fs):
        fs.create("/proj/a.h", content="")
        fs.create("/proj/b.h", content="")
        fs.create("/proj/main.c", content='#include "a.h"\n#include "b.h"\n')
        relations = CIncludeInvestigator(fs, "/proj").investigate()
        assert set(relations[0].files) == {"/proj/main.c", "/proj/a.h", "/proj/b.h"}

    def test_empty_file_no_relation(self, fs):
        fs.create("/proj/empty.c", content="")
        assert CIncludeInvestigator(fs, "/proj").investigate() == []

    def test_include_relations_force_clustering(self, fs):
        # Section 3.3.3 end-to-end: the include relation forces the
        # pair into one cluster with no semantic-distance data at all.
        fs.create("/proj/defs.h", content="")
        fs.create("/proj/main.c", content='#include "defs.h"\n')
        investigator = CIncludeInvestigator(fs, "/proj", strength=10.0)
        clusters = Correlator(SeerParameters()).build_clusters(
            relations=investigator.investigate())
        assert clusters.same_cluster("/proj/main.c", "/proj/defs.h")


class TestMakefileParsing:
    def test_simple_rule(self):
        rules = parse_makefile("prog: main.o util.o\n\tcc -o prog\n")
        assert ("prog", ["main.o", "util.o"]) in rules

    def test_variable_expansion(self):
        rules = parse_makefile("OBJS = a.o b.o\nprog: $(OBJS)\n")
        assert ("prog", ["a.o", "b.o"]) in rules

    def test_nested_variables(self):
        variables = {"A": "$(B) x", "B": "y"}
        assert expand_variables("$(A)", variables) == "y x"

    def test_recipes_and_comments_skipped(self):
        rules = parse_makefile("# comment\nall: prog\n\techo done  # recipe\n")
        assert rules == [("all", ["prog"])]

    def test_unknown_variable_empty(self):
        assert expand_variables("$(NOPE)", {}) == ""


class TestMakefileInvestigator:
    def test_whole_project_related(self, fs):
        fs.create("/proj/main.c", content="")
        fs.create("/proj/util.c", content="")
        fs.create("/proj/Makefile",
                  content="SRCS = main.c util.c\nprog: $(SRCS)\n\tcc -o prog $(SRCS)\n")
        relations = MakefileInvestigator(fs, "/proj").investigate()
        assert len(relations) == 1
        assert set(relations[0].files) == {
            "/proj/Makefile", "/proj/main.c", "/proj/util.c"}

    def test_missing_prerequisites_skipped(self, fs):
        fs.create("/proj/Makefile", content="prog: gone.c\n")
        assert MakefileInvestigator(fs, "/proj").investigate() == []

    def test_phony_targets_ignored(self, fs):
        fs.create("/proj/main.c", content="")
        fs.create("/proj/Makefile", content=".PHONY: all\nall: main.c\n")
        relations = MakefileInvestigator(fs, "/proj").investigate()
        assert "/proj/main.c" in relations[0].files
        assert not any(".PHONY" in f for f in relations[0].files)

    def test_high_strength_default(self, fs):
        fs.create("/proj/main.c", content="")
        fs.create("/proj/Makefile", content="prog: main.c\n")
        relations = MakefileInvestigator(fs, "/proj").investigate()
        assert relations[0].strength >= 10.0


class TestNamingInvestigator:
    def test_c_and_h_related(self, fs):
        fs.create("/proj/widget.c", content="")
        fs.create("/proj/widget.h", content="")
        relations = NamingInvestigator(fs, "/proj").investigate()
        assert len(relations) == 1
        assert set(relations[0].files) == {"/proj/widget.c", "/proj/widget.h"}

    def test_different_stems_unrelated(self, fs):
        fs.create("/proj/a.c", content="")
        fs.create("/proj/b.h", content="")
        assert NamingInvestigator(fs, "/proj").investigate() == []

    def test_different_directories_unrelated(self, fs):
        fs.mkdir("/proj/sub")
        fs.create("/proj/widget.c", content="")
        fs.create("/proj/sub/widget.h", content="")
        assert NamingInvestigator(fs, "/proj").investigate() == []

    def test_tex_family(self, fs):
        fs.create("/proj/paper.tex", content="")
        fs.create("/proj/paper.bib", content="")
        relations = NamingInvestigator(fs, "/proj").investigate()
        assert len(relations) == 1

    def test_unrelated_extensions_ignored(self, fs):
        fs.create("/proj/data.csv", content="")
        fs.create("/proj/data.json", content="")
        assert NamingInvestigator(fs, "/proj").investigate() == []


class TestHotLinkInvestigator:
    def test_embedded_link_followed(self, fs):
        fs.create("/proj/chart.xls", content="numbers\n")
        fs.create("/proj/report.doc", content="intro\nlink: chart.xls\n")
        relations = HotLinkInvestigator(fs, "/proj").investigate()
        assert len(relations) == 1
        assert set(relations[0].files) == {"/proj/report.doc", "/proj/chart.xls"}

    def test_absolute_link(self, fs):
        fs.mkdir("/data")
        fs.create("/data/figures.xls", content="")
        fs.create("/proj/report.doc", content="link: /data/figures.xls\n")
        relations = HotLinkInvestigator(fs, "/proj").investigate()
        assert "/data/figures.xls" in relations[0].files

    def test_dangling_link_ignored(self, fs):
        fs.create("/proj/report.doc", content="link: missing.xls\n")
        assert HotLinkInvestigator(fs, "/proj").investigate() == []

    def test_non_document_ignored(self, fs):
        fs.create("/proj/prog.c", content="link: other.c\n")
        fs.create("/proj/other.c", content="")
        assert HotLinkInvestigator(fs, "/proj").investigate() == []


class TestInvestigatorBase:
    def test_missing_root_yields_nothing(self, fs):
        assert CIncludeInvestigator(fs, "/nowhere").investigate() == []

    def test_strength_override(self, fs):
        fs.create("/proj/defs.h", content="")
        fs.create("/proj/main.c", content='#include "defs.h"\n')
        relations = CIncludeInvestigator(fs, "/proj", strength=7.5).investigate()
        assert relations[0].strength == 7.5
