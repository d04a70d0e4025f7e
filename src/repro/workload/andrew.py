"""The paper's 5-phase benchmark (the proto-"Andrew benchmark").

§5.2: "This benchmark operates on about 70 files corresponding to the
source code of an actual Unix application.  There are five distinct phases
in the benchmark: making a target subtree that is identical in structure to
the source subtree [MakeDir], copying the files from the source to the
target [Copy], examining the status of every file in the target [ScanDir],
scanning every byte of every file in the target [ReadAll], and finally
compiling and linking the files in the target [Make]."

Anchors: ≈1000 s with everything local on a Sun; ≈80 % longer when every
file comes from an unloaded Vice server.

The compile/link work is simulated CPU (a 1-MIPS-era C compiler), but every
file touch is a real open/read/write/close through the workstation's
syscall surface, so remote runs exercise the full Venus/Vice protocol —
including the `make`-style stat pass over dependencies that generates the
status traffic the paper measures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Tuple

from repro.sim.rand import WorkloadRandom
from repro.storage import pathutil
from repro.system.config import SystemConfig
from repro.system.itc import ITCSystem
from repro.virtue.session import UserSession
from repro.workload.filesizes import HEADER_FILE, SOURCE_FILE

__all__ = ["AndrewBenchmark", "AndrewResult", "andrew_campus", "make_source_tree", "PHASES"]

PHASES = ("MakeDir", "Copy", "ScanDir", "ReadAll", "Make")

# Calibrated to the local ≈1000 s anchor (see repro.system.calibration):
# a 1-MIPS-class workstation compiling early-80s C.
_COMPILE_BASE_CPU = 5.0  # per compilation unit: cpp, parsing, codegen setup
_COMPILE_PER_BYTE_CPU = 0.00095  # per source byte (including included headers)
_LINK_BASE_CPU = 30.0
_LINK_PER_BYTE_CPU = 0.0004
_HEADERS_PER_COMPILE = 6


def make_source_tree(seed: int = 7) -> Dict[str, bytes]:
    """~70 files shaped like a real Unix application's source tree."""
    rng = WorkloadRandom(seed)
    tree: Dict[str, bytes] = {}
    for index in range(40):
        tree[f"/src/main_{index:02d}.c"] = SOURCE_FILE.content(rng, b"/*c*/")
    for index in range(12):
        tree[f"/src/include/hdr_{index:02d}.h"] = HEADER_FILE.content(rng, b"/*h*/")
    for index in range(10):
        tree[f"/src/lib/lib_{index:02d}.c"] = SOURCE_FILE.content(rng, b"/*l*/")
    tree["/src/Makefile"] = b"# synthetic makefile\n" * 20
    tree["/src/README"] = b"An actual Unix application.\n" * 12
    for index in range(6):
        tree[f"/src/doc/section_{index}.ms"] = HEADER_FILE.content(rng, b".PP ")
    return tree


@dataclass
class AndrewResult:
    """Per-phase and total wall-clock (virtual) seconds."""

    phase_seconds: Dict[str, float] = field(default_factory=dict)

    @property
    def total_seconds(self) -> float:
        return sum(self.phase_seconds.values())



class AndrewBenchmark:
    """One run of the 5-phase benchmark by one user session.

    ``source_root``/``target_root`` are workstation paths; pointing them
    under ``/vice`` runs the remote variant, anywhere else the local one.
    The object files always go to the workstation's ``/tmp`` — the paper's
    own point about temporary files belonging in the local name space.
    """

    def __init__(
        self,
        session: UserSession,
        source_root: str,
        target_root: str,
        tmp_dir: str = "/tmp",
    ):
        self.session = session
        self.source_root = source_root
        self.target_root = target_root
        self.tmp_dir = tmp_dir
        self.sim = session.workstation.sim
        self.result = AndrewResult()

    # -- tree walking -----------------------------------------------------

    def _walk(self, root: str) -> Generator[Any, Any, Tuple[List[str], List[str]]]:
        """All (directories, files) under ``root``, breadth-first."""
        directories: List[str] = []
        files: List[str] = []
        frontier = [root]
        while frontier:
            current = frontier.pop(0)
            for name in (yield from self.session.listdir(current)):
                path = pathutil.join(current, name)
                status = yield from self.session.stat(path)
                if status["type"] == "directory":
                    directories.append(path)
                    frontier.append(path)
                else:
                    files.append(path)
        return directories, files

    def _relative(self, path: str, root: str) -> str:
        return path[len(root):].lstrip("/")

    # -- phases ---------------------------------------------------------------

    def _phase_make_dir(self, dirs: List[str]) -> Generator:
        exists = yield from self.session.exists(self.target_root)
        if not exists:
            yield from self.session.mkdir(self.target_root)
        for directory in dirs:
            target = pathutil.join(self.target_root, self._relative(directory, self.source_root))
            yield from self.session.mkdir(target)

    def _phase_copy(self, files: List[str]) -> Generator:
        for source in files:
            data = yield from self.session.read_file(source)
            target = pathutil.join(self.target_root, self._relative(source, self.source_root))
            yield from self.session.write_file(target, data)

    def _phase_scan_dir(self) -> Generator:
        yield from self._walk(self.target_root)  # the walk itself stats everything

    def _phase_read_all(self, files: List[str]) -> Generator:
        for path in files:
            yield from self.session.read_file(path)

    def _phase_make(self, files: List[str]) -> Generator:
        host = self.session.workstation.host
        sources = [f for f in files if f.endswith(".c")]
        headers = [f for f in files if f.endswith(".h")]
        # make(1) first stats every dependency to decide what to build.
        for path in files:
            yield from self.session.stat(path)
        objects: List[str] = []
        rng = WorkloadRandom(17)
        for source in sources:
            data = yield from self.session.read_file(source)
            included = 0
            if headers:
                for pick in range(min(_HEADERS_PER_COMPILE, len(headers))):
                    header = headers[rng.zipf_index(len(headers))]
                    included += len((yield from self.session.read_file(header)))
            yield from host.compute(
                _COMPILE_BASE_CPU + (len(data) + included) * _COMPILE_PER_BYTE_CPU
            )
            object_path = pathutil.join(
                self.tmp_dir, pathutil.basename(source).replace(".c", ".o")
            )
            yield from self.session.write_file(object_path, b"\x7fOBJ" + data[: len(data) // 2])
            objects.append(object_path)
        # Link: read every object, burn link CPU, store the binary in the target.
        total = 0
        for object_path in objects:
            total += len((yield from self.session.read_file(object_path)))
        yield from host.compute(_LINK_BASE_CPU + total * _LINK_PER_BYTE_CPU)
        binary = pathutil.join(self.target_root, "a.out")
        yield from self.session.write_file(binary, b"\x7fELF" + b"b" * min(total, 200_000))

    # -- driver ----------------------------------------------------------------

    def run(self) -> Generator[Any, Any, AndrewResult]:
        """Run all five phases; returns the per-phase timing result."""
        dirs, files = yield from self._walk(self.source_root)

        phases = [
            ("MakeDir", self._phase_make_dir(dirs)),
            ("Copy", self._phase_copy(files)),
        ]
        for name, phase in phases:
            start = self.sim.now
            yield from phase
            self.result.phase_seconds[name] = self.sim.now - start

        _dirs, target_files = yield from self._walk(self.target_root)
        data_files = [f for f in target_files]

        start = self.sim.now
        yield from self._phase_scan_dir()
        self.result.phase_seconds["ScanDir"] = self.sim.now - start

        start = self.sim.now
        yield from self._phase_read_all(data_files)
        self.result.phase_seconds["ReadAll"] = self.sim.now - start

        start = self.sim.now
        yield from self._phase_make(data_files)
        self.result.phase_seconds["Make"] = self.sim.now - start

        return self.result


def andrew_campus(mode: str, remote: bool) -> Tuple[ITCSystem, AndrewBenchmark]:
    """A one-workstation campus holding the source tree — in the user's
    Vice volume when ``remote``, else on the local disk — and the benchmark
    ready to run on it: ``campus.run_op(bench.run())``."""
    campus = ITCSystem(
        SystemConfig(mode=mode, clusters=1, workstations_per_cluster=1,
                     functional_payload_crypto=False)
    )
    campus.add_user("u", "pw")
    volume = campus.create_user_volume("u")
    tree = make_source_tree()
    workstation = campus.workstation(0)
    session = campus.login(workstation, "u", "pw")
    if remote:
        campus.populate(volume, tree, owner="u")
        return campus, AndrewBenchmark(session, "/vice/usr/u/src", "/vice/usr/u/target")
    for path, data in sorted(tree.items()):
        workstation.local_fs.makedirs(pathutil.dirname(path))
        workstation.local_fs.create(path, data)
    return campus, AndrewBenchmark(session, "/src", "/target")
