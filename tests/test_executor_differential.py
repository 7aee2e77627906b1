"""Differential test: the step-table executor against a reference
interpreter.

:class:`ReferenceExecutor` keeps the executor's previous
``_resolve_scalars`` (scalar view through ``Program.walk_call``) and
``_run_call`` (walking the handler CFG block by block) verbatim.  Both
executors run the same generated, mutated and bug-witness programs from
the same seed; every ``ExecResult`` field, the VM-restart counter and
the state of every random stream must match after each run.
"""

import copy

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analyze.witness import WitnessBuilder
from repro.errors import ExecutionError, ExecutorHang
from repro.faults import FaultInjector, FaultPlan
from repro.fuzzer import MutationEngine, RandomLocalizer, TypeSelector
from repro.kernel import BlockRole, Executor, build_kernel
from repro.kernel.bugs import CrashReport
from repro.kernel.conditions import scalar_view
from repro.kernel.executor import _FLAKY_TRIGGER_PROB, _MAX_STEPS_PER_CALL
from repro.kernel.state import KernelState
from repro.rng import make_rng
from repro.syzlang import ProgramGenerator
from repro.syzlang.program import Program, ResourceValue

VERSIONS = ("6.8", "6.9", "6.10")
SETUPS = ("plain", "noise", "hangs")


class ReferenceExecutor(Executor):
    """The executor with its CFG-walking interpreter."""

    def _resolve_scalars(
        self, program: Program, call_index: int, retvals: list[int]
    ) -> dict[tuple[int, ...], int]:
        flat: dict[tuple[int, ...], int] = {}
        for path, value in program.walk_call(call_index):
            if isinstance(value, ResourceValue):
                producer = value.producer
                if producer is None or producer >= len(retvals):
                    flat[path.elements] = 0
                else:
                    flat[path.elements] = max(retvals[producer], 0)
            else:
                flat[path.elements] = scalar_view(value)
        return flat

    def _run_call(
        self,
        call,
        flat: dict[tuple[int, ...], int],
        state: KernelState,
        operands: set[int] | None = None,
    ) -> tuple[list[int], int, CrashReport | None]:
        cfg = self.kernel.handlers.get(call.spec.full_name)
        if cfg is None:
            raise ExecutionError(
                f"kernel {self.kernel.version} has no handler for "
                f"{call.spec.full_name!r}"
            )
        trace: list[int] = []
        current = cfg.entry
        for _ in range(_MAX_STEPS_PER_CALL):
            block = cfg.blocks[current]
            trace.append(current)
            for key, flag_value in block.effects:
                state.flags[key] = flag_value
            if block.role is BlockRole.CRASH:
                bug = block.bug
                assert bug is not None
                triggers = bug.reproducible or (
                    self._rng.random() < _FLAKY_TRIGGER_PROB
                )
                if triggers:
                    if bug.corrupts_memory:
                        description = bug.corruption_description(self._rng)
                    else:
                        description = bug.description()
                    report = CrashReport(
                        bug=bug, block_id=current, description=description,
                    )
                    return trace, -5, report
                # Near-miss: the race window closed; fall through.
                return trace, -5, None
            if block.role is BlockRole.EXIT_SUCCESS:
                retval = 0
                produces = call.spec.produces
                if produces is not None:
                    retval = state.open_handle(kind=produces.name)
                return trace, retval, None
            if block.role is BlockRole.EXIT_ERROR:
                return trace, -block.errno, None
            succs = cfg.successors(current)
            if block.role is BlockRole.CONDITION:
                condition = block.condition
                assert condition is not None
                if operands is not None and hasattr(condition, "operand"):
                    operands.add(condition.operand)
                taken = condition.evaluate(flat, state)
                current = succs[1] if taken else succs[0]
            else:
                current = succs[0]
        error = ExecutorHang(
            f"handler {call.spec.full_name} exceeded {_MAX_STEPS_PER_CALL} "
            "steps"
        )
        error.trace = trace
        raise error


@pytest.fixture(scope="module")
def tiny_kernels():
    return {
        version: build_kernel(version, seed=1, size="tiny")
        for version in VERSIONS
    }


@pytest.fixture(scope="module")
def witnesses(tiny_kernels):
    """One program per planted bug that drives execution to its crash
    block, so flaky draws and corruption descriptions are exercised."""
    pool = {}
    for version, kernel in tiny_kernels.items():
        builder = WitnessBuilder(kernel)
        programs = [
            builder.witness(block_id)
            for _, block_id in sorted(kernel.bug_blocks.items())
        ]
        pool[version] = [p for p in programs if p is not None]
        assert pool[version]
    return pool


def _pair(kernel, setup, seed):
    """A (reference, step-table) executor pair built alike."""

    def build(cls):
        if setup == "noise":
            return cls(kernel, noise=0.3, seed=seed)
        if setup == "hangs":
            plan = FaultPlan(seed=seed).with_rate("executor", 0.3)
            return cls(kernel, seed=seed, injector=FaultInjector(plan))
        return cls(kernel, seed=seed)

    return build(ReferenceExecutor), build(Executor)


def _assert_same(reference, executor, ref_result, result):
    assert result.coverage.call_traces == ref_result.coverage.call_traces
    assert result.coverage.edges == ref_result.coverage.edges
    assert result.retvals == ref_result.retvals
    assert result.blocks_executed == ref_result.blocks_executed
    assert result.comparison_operands == ref_result.comparison_operands
    assert result.timeout == ref_result.timeout
    assert (result.crash is None) == (ref_result.crash is None)
    if result.crash is not None:
        assert result.crash.description == ref_result.crash.description
        assert result.crash.block_id == ref_result.crash.block_id
        assert result.crash.bug.bug_id == ref_result.crash.bug.bug_id
    assert executor.vm_restarts == reference.vm_restarts
    assert (
        executor._rng.bit_generator.state
        == reference._rng.bit_generator.state
    )
    if executor.injector is not None:
        assert executor.injector.state() == reference.injector.state()


def _run_both(reference, executor, programs, now=0.0):
    for program in programs:
        ref_result = reference.run(program, now)
        result = executor.run(program, now)
        _assert_same(reference, executor, ref_result, result)


class TestExecutorDifferential:
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        seed=st.integers(0, 50_000),
        version=st.sampled_from(VERSIONS),
        setup=st.sampled_from(SETUPS),
    )
    def test_generated_and_mutated_programs(
        self, tiny_kernels, witnesses, seed, version, setup
    ):
        """Property: on generated programs, their mutants and every bug
        witness, the step tables reproduce the reference run exactly."""
        kernel = tiny_kernels[version]
        generator = ProgramGenerator(kernel.table, make_rng(seed))
        engine = MutationEngine(
            TypeSelector(), RandomLocalizer(k=4), generator,
            make_rng(seed + 1),
        )
        programs = []
        for _ in range(3):
            base = generator.random_program()
            programs.append(base)
            for _ in range(3):
                base = engine.mutate_test(base).program
                programs.append(base)
        reference, executor = _pair(kernel, setup, seed)
        _run_both(reference, executor, programs + witnesses[version])
        # Twice through the witnesses: flaky bugs fire on some visits
        # and not on others, drawing from the executor stream each time.
        _run_both(reference, executor, witnesses[version])

    @pytest.mark.parametrize("setup", SETUPS)
    def test_small_kernel_seed_corpus(self, kernel, setup):
        reference, executor = _pair(kernel, setup, seed=3)
        programs = ProgramGenerator(kernel.table, make_rng(3)).seed_corpus(40)
        _run_both(reference, executor, programs)

    def test_hang_windows_match(self, tiny_kernels, witnesses):
        kernel = tiny_kernels["6.8"]
        plan = FaultPlan(seed=5).with_window("executor", 10.0, 20.0)
        reference = ReferenceExecutor(kernel, injector=FaultInjector(plan))
        executor = Executor(kernel, injector=FaultInjector(plan))
        for now in (0.0, 15.0, 25.0):
            _run_both(reference, executor, witnesses["6.8"], now)
        assert executor.vm_restarts == len(witnesses["6.8"])

    def test_step_budget_hang(self, tiny_kernels, witnesses):
        """A cyclic handler hits the step budget: the watchdog reports
        the same timeout, and without it both raise the same hang."""
        kernel = copy.deepcopy(tiny_kernels["6.8"])
        program = witnesses["6.8"][0]
        cfg = kernel.handlers[program.calls[-1].spec.full_name]
        entry_succ = cfg.succs[cfg.entry]
        cfg.succs[entry_succ[0]] = (cfg.entry,)
        cfg.blocks[entry_succ[0]].role = BlockRole.BODY
        reference = ReferenceExecutor(kernel, watchdog=True)
        executor = Executor(kernel, watchdog=True)
        _run_both(reference, executor, [program])
        assert executor.vm_restarts == 1
        errors = []
        for cls in (ReferenceExecutor, Executor):
            with pytest.raises(ExecutorHang) as caught:
                cls(kernel).run(program)
            errors.append(caught.value)
        assert str(errors[0]) == str(errors[1])
        assert errors[0].trace == errors[1].trace
        assert len(errors[1].trace) == _MAX_STEPS_PER_CALL

    def test_missing_handler_message_matches(self, tiny_kernels, witnesses):
        kernel = copy.deepcopy(tiny_kernels["6.8"])
        program = witnesses["6.8"][0]
        del kernel.handlers[program.calls[0].spec.full_name]
        messages = []
        for cls in (ReferenceExecutor, Executor):
            with pytest.raises(ExecutionError) as caught:
                cls(kernel).run(program)
            messages.append(str(caught.value))
        assert messages[0] == messages[1]
