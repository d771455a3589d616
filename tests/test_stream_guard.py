"""Satellite S6: no module may grow private memory-ref plumbing again.

The reference-stream pipeline (``repro.stream``) is the only place
memory-event fan-out may live.  This guard greps the source tree for
the idioms the refactor deleted -- ad-hoc observer callbacks and
observer lists -- so a regression shows up as a named file/line, not as
silently duplicated plumbing.  It also keeps each hot contract to one
implementation: columnar consumer hooks only, and one ``Cache`` engine.
"""

from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: Idioms of the pre-pipeline plumbing.  Kept as literal substrings so
#: the failure message points at the exact offending line.
FORBIDDEN = ("ref_observer", "RefObserver", "AccessObserver", ".observers")

#: The pipeline package itself plus this guard's own vocabulary.
ALLOWED = {SRC / "stream"}


def _source_files():
    for path in sorted(SRC.rglob("*.py")):
        if any(allowed in path.parents for allowed in ALLOWED):
            continue
        yield path


def test_source_tree_exists():
    assert SRC.is_dir()
    assert sum(1 for _ in _source_files()) > 50


def test_no_private_ref_plumbing_outside_the_pipeline():
    offenders = []
    for path in _source_files():
        for lineno, line in enumerate(
                path.read_text().splitlines(), 1):
            if any(token in line for token in FORBIDDEN):
                offenders.append(
                    f"{path.relative_to(SRC)}:{lineno}: {line.strip()}")
    assert not offenders, (
        "memory-ref callback plumbing belongs in repro.stream:\n"
        + "\n".join(offenders))


#: Producer hot paths that must append columns, never build per-event
#: records.  The SoA refactor's whole point is that these modules pay a
#: handful of list appends per reference; a ``MemoryEvent(`` /
#: ``LineEvent(`` creeping back in means someone reintroduced an
#: array-of-structs hop on the hot path.
HOT_PRODUCERS = (
    SRC / "vm" / "interpreter.py",
    SRC / "vm" / "tracing.py",
    SRC / "memory" / "hierarchy.py",
)

FORBIDDEN_IN_PRODUCERS = ("MemoryEvent(", "LineEvent(")


def test_producer_hot_paths_stay_columnar():
    offenders = []
    for path in HOT_PRODUCERS:
        assert path.is_file(), path
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if any(token in line for token in FORBIDDEN_IN_PRODUCERS):
                offenders.append(
                    f"{path.relative_to(SRC)}:{lineno}: {line.strip()}")
    assert not offenders, (
        "producers append columns; per-event records are for test and "
        "debug collectors:\n" + "\n".join(offenders))


#: Second implementations of a hot contract that no real run executes:
#: the per-event consumer hooks and their tuple views (consumers take
#: columnar batches only) and the dict cache engine (``Cache`` is the
#: array engine; other policies get ``ReferenceCache`` from
#: ``make_cache``).
FORBIDDEN_SECOND_PATHS = ("def on_refs", "def on_lines", "to_events",
                          "._fast")

#: The array-of-structs hub, kept verbatim as the pipeline yardstick.
SECOND_PATH_EXEMPT = {SRC / "stream" / "reference.py"}


def test_one_implementation_per_hot_contract():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if path in SECOND_PATH_EXEMPT:
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if any(token in line for token in FORBIDDEN_SECOND_PATHS):
                offenders.append(
                    f"{path.relative_to(SRC)}:{lineno}: {line.strip()}")
    assert not offenders, (
        "consumers implement on_batch/on_line_batch only, and Cache has "
        "one engine:\n" + "\n".join(offenders))
