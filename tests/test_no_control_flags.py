"""Static guard: the sound classes carry no unsound-control switch.

Each chaos control is a named mutant in :mod:`repro.chaos.mutants`, a
subclass overriding one protocol step.  A flag inside the sound code
(``ReplicationConfig.fencing``, a binder's ``transaction_per_step``, the
scenario's ``_flip_without_drain``) would put a branch for the broken
variant back on every sound commit, and the idle ``append_window_ms``
knob is gone with its batching code.  This test reads the replication
package, the app binders and the chaos scenarios, and fails if one of
those identifiers comes back.  It never imports the code it checks.
"""

import io
import os
import tokenize

SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "repro"
)

#: the sound code the controls used to live in
CHECKED = ("replication", os.path.join("apps", "core", "binders"),
           os.path.join("chaos", "scenarios.py"))

#: identifier fragments of the retired switches
RETIRED = ("fencing", "append_window", "transaction_per_step",
           "_flip_without_drain")


def checked_files():
    for entry in CHECKED:
        path = os.path.join(SRC, entry)
        if os.path.isdir(path):
            for name in sorted(os.listdir(path)):
                if name.endswith(".py"):
                    yield os.path.join(path, name)
        else:
            yield path


def checked_sources():
    for path in checked_files():
        with open(path) as handle:
            yield os.path.relpath(path, SRC), handle.read()


def switches_in(source):
    """Identifiers naming a retired switch; comments and strings are
    prose, not code, and may still mention fencing."""
    return [
        token.string
        for token in tokenize.generate_tokens(io.StringIO(source).readline)
        if token.type == tokenize.NAME
        and any(fragment in token.string for fragment in RETIRED)
    ]


def test_checked_sources_exist():
    files = dict(checked_sources())
    for name in ("replication/replica.py", "replication/config.py",
                 "apps/core/binders/db.py", "chaos/scenarios.py"):
        assert name in files


def test_no_control_flag_in_sound_code():
    found = {name: switches_in(source) for name, source in checked_sources()}
    assert not any(found.values()), {k: v for k, v in found.items() if v}


def test_the_guard_matches_what_it_forbids():
    assert switches_in("if not self.config.fencing:\n    pass\n") == ["fencing"]
    assert switches_in("ReplicationConfig(append_window_ms=1.0)\n")
    assert switches_in("bind('db', env, spec, transaction_per_step=True)\n")
    assert switches_in("yield from self._flip_without_drain(0, 'n1')\n")
    assert not switches_in('"""Fencing: fencing tokens."""  # fencing\n')
    assert not switches_in("self._fence(term)\n")
