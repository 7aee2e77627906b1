"""Hypothesis property tests on core program invariants."""

import copy

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.kernel import Executor, build_kernel
from repro.rng import make_rng
from repro.syzlang import ProgramGenerator, serialize_program
from repro.syzlang.program import (
    ArrayValue,
    BufferValue,
    Call,
    IntValue,
    Program,
    PtrValue,
    ResourceValue,
    StructValue,
    zero_value,
)

TINY_VERSIONS = ("6.8", "6.9", "6.10")


def _program(seed, table):
    return ProgramGenerator(table, make_rng(seed)).random_program()


def _deepcopy_clone(program):
    """Reference clone: copies every value tree including its types."""
    return Program([
        Call(call.spec, [copy.deepcopy(arg) for arg in call.args])
        for call in program.calls
    ])


def _mutable_nodes(program):
    """Every Call, Value and list object reachable from ``program``."""
    nodes = [program.calls]
    for call in program.calls:
        nodes += [call, call.args]
    for _, value in program.walk():
        nodes.append(value)
        if isinstance(value, StructValue):
            nodes.append(value.fields)
        elif isinstance(value, ArrayValue):
            nodes.append(value.elems)
    return nodes


def _rewrite_in_place(value):
    if isinstance(value, IntValue):
        value.value += 1
    elif isinstance(value, BufferValue):
        value.data += b"\x01"
    elif isinstance(value, ResourceValue):
        value.producer = None if value.producer is not None else 0


@pytest.fixture(scope="module")
def tiny_tables():
    return {
        version: build_kernel(version, seed=1, size="tiny").table
        for version in TINY_VERSIONS
    }


class TestStructuralInvariants:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(seed=st.integers(0, 50_000), removals=st.integers(1, 3))
    def test_removal_sequence_keeps_validity(self, table, seed, removals):
        """Property: any sequence of call removals leaves the program
        valid (dangling resources become NULL, indices shift)."""
        rng = make_rng(seed)
        program = _program(seed, table)
        for _ in range(removals):
            if len(program) <= 1:
                break
            program.remove_call(int(rng.integers(len(program))))
        program.validate(table)

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(seed=st.integers(0, 50_000))
    def test_insertion_keeps_validity(self, table, seed):
        rng = make_rng(seed)
        generator = ProgramGenerator(table, rng)
        program = generator.random_program()
        spec = table.specs[int(rng.integers(len(table.specs)))]
        position = int(rng.integers(0, len(program) + 1))
        call = generator.random_call(spec, {})
        program.insert_call(position, call)
        program.validate(table)

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(seed=st.integers(0, 50_000))
    def test_mutation_sites_resolve(self, table, seed):
        """Property: every enumerated mutation site resolves via get()
        to a mutable leaf."""
        program = _program(seed, table)
        for path in program.mutation_sites():
            value = program.get(path)
            assert value.ty.is_mutable()

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(seed=st.integers(0, 50_000))
    def test_clone_preserves_sites_and_serialization(self, table, seed):
        program = _program(seed, table)
        clone = program.clone()
        assert serialize_program(clone) == serialize_program(program)
        assert [p.elements for p in clone.mutation_sites()] == [
            p.elements for p in program.mutation_sites()
        ]

    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        seed=st.integers(0, 50_000), version=st.sampled_from(TINY_VERSIONS)
    )
    def test_structural_clone_matches_deepcopy(self, tiny_tables, seed, version):
        """Property: the structural clone equals the deepcopy reference,
        shares every frozen type, and shares no mutable node."""
        program = _program(seed, tiny_tables[version])
        reference = _deepcopy_clone(program)
        clone = program.clone()
        original_text = serialize_program(program)
        assert serialize_program(clone) == serialize_program(reference)
        assert serialize_program(clone) == original_text
        assert [path for path, _ in clone.walk()] == [
            path for path, _ in reference.walk()
        ]
        for (_, value), (_, copied) in zip(program.walk(), clone.walk()):
            assert copied.ty is value.ty
            assert type(copied) is type(value)
        original_ids = {id(node) for node in _mutable_nodes(program)}
        assert not original_ids & {id(node) for node in _mutable_nodes(clone)}
        # Writes through the clone, in place and by replacement, never
        # reach the original.
        sites = clone.mutation_sites()
        for path in sites:
            _rewrite_in_place(clone.get(path))
        assert serialize_program(program) == original_text
        for path in sites:
            clone.set(path, zero_value(clone.get(path).ty))
        for call in clone.calls:
            for arg in call.args:
                if isinstance(arg, PtrValue):
                    arg.pointee = None
        assert serialize_program(program) == original_text

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(seed=st.integers(0, 50_000))
    def test_scalar_view_keys_equal_walk(self, kernel, seed):
        """The executor's scalar view of a call has one key per
        ``walk_call`` element tuple."""
        program = _program(seed, kernel.table)
        executor = Executor(kernel)
        retvals = executor.run(program).retvals
        for call_index in range(len(program)):
            flat = executor._resolve_scalars(program, call_index, retvals)
            walked = {
                path.elements for path, _ in program.walk_call(call_index)
            }
            assert set(flat) == walked
