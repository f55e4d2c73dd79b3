"""The user-behaviour model and trace generation.

:class:`UserModel` drives a simulated kernel the way one user drives a
laptop: a login shell forks editors, compilers, mailers and the
occasional find(1); attention shifts move the focus between projects
(the case where LRU hoarding fails, section 6.1); mail is read while
compilations run (the simultaneous-access problem of section 4.7);
getcwd and directory scans inject the noise of section 4.1.

:func:`generate_machine_trace` wraps the model with a machine profile
and a connectivity schedule, producing a :class:`GeneratedTrace` that
the simulation harness replays.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.fs import FileSystemError
from repro.kernel import Kernel
from repro.kernel.process import Process
from repro.tracing.events import TraceRecord
from repro.workload.machines import MachineProfile
from repro.workload.projects import (
    FIND,
    GREP,
    SHELL,
    ArchiveProject,
    CProject,
    DocumentProject,
    FileRole,
    MailProject,
    Project,
    build_system_tree,
    spawn_program,
)
from repro.workload.sessions import (
    HOUR,
    Period,
    PeriodKind,
    Schedule,
    generate_schedule,
)
from repro.workload.sizes import FileSizeModel


@dataclass
class GeneratedTrace:
    """One machine's complete synthetic deployment."""

    machine: MachineProfile
    records: List[TraceRecord]
    schedule: Schedule
    roles: Dict[str, FileRole]
    kernel: Kernel
    projects: List[Project] = field(default_factory=list)
    # Generation inputs, kept so the parallel runner can rebuild this
    # trace inside a worker process from the (machine, seed, days) key.
    seed: int = 0
    days: float = 0.0

    def size_of(self, path: str) -> int:
        try:
            node = self.kernel.fs.stat(path, follow_symlinks=False)
        except FileSystemError:
            return 0
        return 0 if node.kind.takes_no_space else node.size


class UserModel:
    """One user's activity generator."""

    def __init__(self, kernel: Kernel, projects: Sequence[Project],
                 rng: random.Random,
                 attention_shift_rate: float = 0.08,
                 mail: Optional[MailProject] = None,
                 archives: Sequence[Project] = ()) -> None:
        self.kernel = kernel
        self.projects = list(projects)
        self.archives = list(archives)
        self.rng = rng
        self.attention_shift_rate = attention_shift_rate
        self.mail = mail
        # Real users work in several terminal windows: project work,
        # mail, and utility commands run under different shells, so
        # their reference streams only mix through true concurrency,
        # not through the parent-merge of section 4.7.
        self.shell = kernel.processes.spawn(ppid=1, program="sh",
                                            uid=1000, cwd="/home/u")
        self.mail_shell = kernel.processes.spawn(ppid=1, program="sh",
                                                 uid=1000, cwd="/home/u")
        self.utility_shell = kernel.processes.spawn(ppid=1, program="sh",
                                                    uid=1000, cwd="/home/u")
        # Zipf-ish focus weights: the first projects dominate.
        self._weights = [1.0 / (rank + 1) for rank in range(len(self.projects))]
        self.focus: Project = self.projects[0] if self.projects else None
        self._last_focus = {}
        self._pending_resume = None
        self._current_archive = None
        self.bursts_emitted = 0

    # ------------------------------------------------------------------
    # activities
    # ------------------------------------------------------------------
    def login(self) -> None:
        """Session start: the shell reads the user's startup files.

        These are the rarely-accessed critical files of section 4.3
        (suspend/resume means most sessions skip this)."""
        for dotfile in ("/home/u/.login", "/home/u/.profile"):
            fd = self.kernel.open(self.shell, dotfile)
            if fd >= 0:
                self.kernel.close(self.shell, fd)

    def maybe_shift_attention(self) -> bool:
        """Move focus to another project.

        Sometimes the user bounces among the currently-hot projects
        (Zipf-weighted); sometimes a deadline or request *resumes* a
        long-dormant project -- the case where LRU hoarding fails,
        because nothing of that project is recent (section 6.1).
        """
        if len(self.projects) < 2:
            return False
        if self.rng.random() >= self.attention_shift_rate:
            return False
        others = [p for p in self.projects if p is not self.focus]
        if self.rng.random() < 0.4:
            # Deep resume: the least recently focused project.  People
            # decide before they dive: the user skims the project now
            # (a preview burst) and starts real work a day or so later.
            project = min(others, key=lambda p: self._last_focus.get(p.name, 0))
            self._preview(project)
            self._pending_resume = (project,
                                    self.bursts_emitted + self.rng.randrange(8, 30))
            return False
        weights = [self._weights[self.projects.index(p)] for p in others]
        self.focus = self.rng.choices(others, weights=weights)[0]
        self._last_focus[self.focus.name] = self.bursts_emitted
        return True

    def _preview(self, project: Project) -> None:
        """Skim a dormant project: list it, read a few entry points."""
        self.kernel.scandir(self.shell, project.root)
        files = project.files()
        for path in files[: min(3, len(files))]:
            fd = self.kernel.open(self.shell, path)
            if fd >= 0:
                self.kernel.close(self.shell, fd)

    def _maybe_start_pending_resume(self) -> None:
        if self._pending_resume is None:
            return
        project, when = self._pending_resume
        if self.bursts_emitted >= when:
            self._pending_resume = None
            self.focus = project
            self._last_focus[project.name] = self.bursts_emitted

    def run_find(self) -> None:
        """find(1): the canonical meaningless process (section 4.1)."""
        find = spawn_program(self.kernel, self.utility_shell, FIND)
        queue = ["/home/u"]
        visited = 0
        while queue and visited < 80:
            directory = queue.pop()
            visited += 1
            names = self.kernel.scandir(find, directory)
            for name in names:
                path = f"{directory}/{name}" if directory != "/" else f"/{name}"
                if self.kernel.fs.is_directory(path):
                    queue.append(path)
                else:
                    self.kernel.stat(find, path)
        self.kernel.exit(find)

    def run_grep(self) -> None:
        """grep over the focus project: touches everything it learns
        about, so the threshold heuristic eventually mutes it too."""
        if self.focus is None:
            return
        grep = spawn_program(self.kernel, self.utility_shell, GREP)
        self.kernel.chdir(grep, self.focus.root)
        names = self.kernel.scandir(grep, self.focus.root)
        for name in names:
            fd = self.kernel.open(grep, name)
            if fd >= 0:
                self.kernel.close(grep, fd)
        self.kernel.exit(grep)

    def run_getcwd(self) -> None:
        self.kernel.chdir(self.shell, self.focus.root if self.focus else "/home/u")
        self.kernel.getcwd(self.shell)

    def browse(self) -> None:
        """A one-off look at dormant content -- usually an archive,
        sometimes an inactive project.  These incidental references pad
        an LRU list without being part of any working set."""
        if self.archives and self.rng.random() < 0.7:
            # Browsing has temporal locality of its own: people poke
            # around the same archive for a few days before moving on.
            if self._current_archive is None or self.rng.random() < 0.3:
                self._current_archive = self.rng.choice(self.archives)
            self._current_archive.work(self.kernel, self.utility_shell, self.rng)
            return
        others = [p for p in self.projects if p is not self.focus]
        if not others:
            return
        project = self.rng.choice(others)
        files = project.files()
        if not files:
            return
        fd = self.kernel.open(self.shell, self.rng.choice(files))
        if fd >= 0:
            self.kernel.close(self.shell, fd)

    def interleaved_compile_and_mail(self) -> None:
        """Section 4.7's motivating case: reading mail while a build
        runs.  The two processes' references interleave in the trace.
        """
        if self.mail is None or self.focus is None or \
                not isinstance(self.focus, CProject):
            return
        project = self.focus
        make = spawn_program(self.kernel, self.shell, "/bin/make")
        self.kernel.chdir(make, project.root)
        mailer = spawn_program(self.kernel, self.mail_shell, "/bin/mail")
        fd_makefile = self.kernel.open(make, project.makefile)
        fd_inbox = self.kernel.open(mailer, self.mail.inbox)
        for source in project.sources:
            self.kernel.stat(make, source)
            if self.rng.random() < 0.5 and self.mail.folders:
                folder_fd = self.kernel.open(
                    mailer, self.rng.choice(self.mail.folders))
                if folder_fd >= 0:
                    self.kernel.close(mailer, folder_fd)
            source_fd = self.kernel.open(make, source)
            if source_fd >= 0:
                self.kernel.close(make, source_fd)
        if fd_inbox >= 0:
            self.kernel.close(mailer, fd_inbox)
        if fd_makefile >= 0:
            self.kernel.close(make, fd_makefile)
        self.kernel.exit(mailer)
        self.kernel.exit(make)
        self.kernel.clock.advance(self.rng.uniform(30, 120))

    # ------------------------------------------------------------------
    # the burst loop
    # ------------------------------------------------------------------
    def burst(self) -> None:
        """One unit of user activity."""
        self.bursts_emitted += 1
        self._maybe_start_pending_resume()
        self.maybe_shift_attention()
        roll = self.rng.random()
        if roll < 0.62 and self.focus is not None:
            self.focus.work(self.kernel, self.shell, self.rng)
        elif roll < 0.77 and self.mail is not None:
            self.mail.work(self.kernel, self.mail_shell, self.rng)
        elif roll < 0.85:
            self.interleaved_compile_and_mail()
        elif roll < 0.89:
            self.run_grep()
        elif roll < 0.93:
            self.run_find()
        elif roll < 0.94:
            self.browse()
        else:
            self.run_getcwd()
        self.kernel.clock.advance(self.rng.uniform(30, 600))

    def run_period(self, period: Period, bursts: int) -> None:
        """Emit *bursts* activity bursts spread across *period*."""
        self.kernel.clock.advance_to(period.start)
        for _ in range(bursts):
            if self.kernel.clock.now >= period.end:
                break
            self.burst()
        self.kernel.clock.advance_to(period.end)


def build_projects(profile: MachineProfile, kernel: Kernel,
                   sizes: FileSizeModel, rng: random.Random) -> List[Project]:
    projects: List[Project] = []
    for index in range(profile.n_code_projects):
        project = CProject(f"prog{index}", f"/home/u/src/prog{index}",
                           n_sources=5 + rng.randrange(6),
                           n_headers=3 + rng.randrange(4))
        project.build(kernel.fs, sizes)
        projects.append(project)
    for index in range(profile.n_document_projects):
        project = DocumentProject(f"paper{index}", f"/home/u/doc/paper{index}",
                                  n_sections=3 + rng.randrange(4),
                                  n_figures=2 + rng.randrange(3))
        project.build(kernel.fs, sizes)
        projects.append(project)
    rng.shuffle(projects)
    return projects


def generate_machine_trace(profile: MachineProfile, seed: int = 0,
                           days: Optional[float] = None,
                           bursts_per_hour: float = 2.0,
                           suspension_fraction: float = 0.3) -> GeneratedTrace:
    """Generate one machine's trace plus its connectivity schedule.

    *days* overrides the profile's measurement length (useful to keep
    test runs fast); *bursts_per_hour* scales activity before the
    profile's own activity factor is applied.
    """
    rng = random.Random(seed * 1_000_003 + ord(profile.name[0]))
    kernel = Kernel()
    sizes = FileSizeModel(random.Random(rng.random()))
    roles = build_system_tree(kernel.fs, sizes)
    projects = build_projects(profile, kernel, sizes, rng)
    mail = MailProject()
    mail.build(kernel.fs, sizes)
    n_archives = max(3, int(round(3 + 5 * profile.activity)))
    archives = []
    for index in range(n_archives):
        archive = ArchiveProject(f"archive{index}",
                                 f"/home/u/archive/old{index}",
                                 n_files=30 + rng.randrange(30))
        archive.build(kernel.fs, sizes)
        archives.append(archive)

    records: List[TraceRecord] = []
    kernel.add_sink(records.append)

    span_days = days if days is not None else float(profile.days_measured)
    scale = span_days / float(profile.days_measured)
    # Short runs keep at least two disconnections so tests exercise
    # the disconnection machinery -- but never more than the profile
    # itself has: a sampled population machine that never disconnected
    # (profile.n_disconnections == 0) stays fully connected.
    floor = min(2, profile.n_disconnections)
    n_disconnections = max(floor, int(round(profile.n_disconnections * scale)))
    schedule = generate_schedule(
        n_disconnections=n_disconnections,
        mean_hours=profile.mean_disconnection_hours,
        median_hours=profile.median_disconnection_hours,
        max_hours=profile.max_disconnection_hours,
        days=span_days, rng=random.Random(rng.random()),
        suspension_fraction=suspension_fraction)

    user = UserModel(kernel, projects, rng,
                     attention_shift_rate=profile.attention_shift_rate,
                     mail=mail, archives=archives)
    rate = bursts_per_hour * profile.activity
    first_period = True
    for period in schedule.periods:
        if period.kind is PeriodKind.SUSPENDED:
            continue   # suspensions emit nothing
        hours = period.duration / HOUR
        bursts = max(1, int(hours * rate)) if hours > 0.05 else 0
        if first_period or rng.random() < 0.1:
            self_login_clock = kernel.clock.advance_to(period.start)
            user.login()
            first_period = False
        user.run_period(period, bursts)

    for project in projects + [mail] + archives:
        roles.update(project.roles)
    return GeneratedTrace(machine=profile, records=records,
                          schedule=schedule, roles=roles, kernel=kernel,
                          projects=projects + [mail],
                          seed=seed, days=span_days)
