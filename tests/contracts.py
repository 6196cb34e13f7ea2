"""Declarative array contracts for the hot ``repro.nn`` kernels.

A :class:`KernelContract` states, for one kernel, the symbolic shape
and dtype *kind* of every array argument and of the outputs::

    KernelContract(
        "repro.nn.pooling.log_sum_exp_pool",
        inputs={"window_values": ArraySpec(("P", "K"), "floating"),
                "valid": ArraySpec(("P",), "bool"),
                "starts": ArraySpec(("B",), "integer")},
        outputs=(ArraySpec(("B", "K"), "floating"),),
    )

Symbols (``B``, ``P``, …) unify across all arrays of one call: the
first array to mention ``B`` binds it, later mentions must agree.
Derived dimensions are expression strings over bound symbols and
declared scalars (``"T - reach"`` for the windowed convolution block).

:func:`check_call` binds real arrays against a contract and raises
:class:`ContractError` on any rank, dimension, or dtype-kind mismatch.
The nn and core test suites run the real kernels under these contracts;
nothing is checked statically (``src/`` hands the kernels no
literal-shaped array to check).
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ArraySpec",
    "KernelContract",
    "ContractError",
    "CONTRACTS",
    "check_call",
    "bind_shape",
]

Dim = int | str

_SYMBOL = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_EXPRESSION_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

# dtype kinds checked via np.issubdtype
_DTYPE_KINDS: dict[str, type] = {
    "floating": np.floating,
    "integer": np.integer,
    "bool": np.bool_,
    "number": np.number,
}


class ContractError(ValueError):
    """An array violated its declared shape/dtype contract."""


@dataclass(frozen=True)
class ArraySpec:
    """Shape + dtype-kind specification for one array.

    ``shape`` entries are ints (exact), bare symbols (unify), or
    expression strings over symbols/scalars (derived, e.g.
    ``"T - reach"``).  ``dtype`` is a kind name from
    ``{"floating", "integer", "bool", "number"}`` or ``None`` (any).
    """

    shape: tuple[Dim, ...]
    dtype: str | None = None

    def __post_init__(self) -> None:
        if self.dtype is not None and self.dtype not in _DTYPE_KINDS:
            raise ValueError(
                f"unknown dtype kind {self.dtype!r}; expected one of "
                f"{sorted(_DTYPE_KINDS)}"
            )

    @property
    def rank(self) -> int:
        return len(self.shape)


def _evaluate_dim(
    dim: Dim, env: Mapping[str, int], label: str
) -> int | None:
    """Resolve a spec dim to an int, or None when symbols are unbound."""
    if isinstance(dim, int):
        return dim
    if _SYMBOL.match(dim):
        return env.get(dim)
    # Expression dim: every token must be bound.
    tokens = _EXPRESSION_TOKEN.findall(dim)
    if any(token not in env for token in tokens):
        return None
    try:
        value = eval(dim, {"__builtins__": {}}, dict(env))  # noqa: S307
    except Exception as error:
        raise ContractError(
            f"{label}: cannot evaluate dimension expression {dim!r}: {error}"
        ) from error
    return int(value)


def bind_shape(
    spec: ArraySpec,
    shape: Sequence[int],
    env: dict[str, int],
    label: str,
) -> None:
    """Unify ``shape`` against ``spec``, updating ``env`` in place.

    Raises :class:`ContractError` on rank mismatch, on a dimension
    that contradicts an earlier binding, or on an exact-dim mismatch.
    """
    if len(shape) != spec.rank:
        raise ContractError(
            f"{label}: rank mismatch — expected {spec.rank}-D "
            f"{_render_shape(spec.shape)}, got {len(shape)}-D "
            f"{tuple(shape)}"
        )
    for position, (dim, actual) in enumerate(zip(spec.shape, shape)):
        if isinstance(dim, str) and _SYMBOL.match(dim):
            bound = env.get(dim)
            if bound is None:
                env[dim] = int(actual)
                continue
            if bound != actual:
                raise ContractError(
                    f"{label}: dimension {position} ({dim}) is {actual}, "
                    f"but {dim} was already bound to {bound}"
                )
            continue
        expected = _evaluate_dim(dim, env, label)
        if expected is None:
            continue  # under-determined; runtime callers may bind later
        if expected != actual:
            raise ContractError(
                f"{label}: dimension {position} is {actual}, expected "
                f"{dim!r} = {expected}"
            )


def _render_shape(shape: tuple[Dim, ...]) -> str:
    return "(" + ", ".join(str(dim) for dim in shape) + ")"


def _check_dtype(spec: ArraySpec, array: np.ndarray, label: str) -> None:
    if spec.dtype is None:
        return
    if not np.issubdtype(array.dtype, _DTYPE_KINDS[spec.dtype]):
        raise ContractError(
            f"{label}: dtype {array.dtype} is not {spec.dtype}"
        )


@dataclass(frozen=True)
class KernelContract:
    """Input/output array contract of one kernel function."""

    name: str
    inputs: Mapping[str, ArraySpec] = field(default_factory=dict)
    outputs: tuple[ArraySpec, ...] = ()
    scalars: tuple[str, ...] = ()

    def bind_inputs(
        self,
        arrays: Mapping[str, np.ndarray],
        scalars: Mapping[str, int] | None = None,
    ) -> dict[str, int]:
        """Unify every provided input array; return the symbol env."""
        env: dict[str, int] = dict(scalars or {})
        for argument, spec in self.inputs.items():
            if argument not in arrays:
                continue
            array = np.asarray(arrays[argument])
            label = f"{self.name}({argument})"
            bind_shape(spec, array.shape, env, label)
            _check_dtype(spec, array, label)
        return env

    def check_outputs(
        self,
        outputs: np.ndarray | Sequence[np.ndarray],
        env: dict[str, int],
    ) -> None:
        if not self.outputs:
            return
        if len(self.outputs) == 1 and not isinstance(
            outputs, (tuple, list)
        ):
            outputs = (outputs,)
        if len(outputs) < len(self.outputs):
            raise ContractError(
                f"{self.name}: expected {len(self.outputs)} outputs, "
                f"got {len(outputs)}"
            )
        for position, spec in enumerate(self.outputs):
            array = np.asarray(outputs[position])
            label = f"{self.name} -> output[{position}]"
            bind_shape(spec, array.shape, env, label)
            _check_dtype(spec, array, label)


def check_call(
    contract: KernelContract | str,
    inputs: Mapping[str, np.ndarray],
    outputs: np.ndarray | Sequence[np.ndarray] | None = None,
    scalars: Mapping[str, int] | None = None,
) -> dict[str, int]:
    """Validate one concrete kernel call against its contract.

    ``contract`` may be a :class:`KernelContract` or a registered
    name.  Returns the fully unified symbol environment (useful in
    tests for asserting the bound dimensions).
    """
    if isinstance(contract, str):
        try:
            contract = CONTRACTS[contract]
        except KeyError:
            raise KeyError(
                f"no contract registered under {contract!r}; known: "
                f"{sorted(CONTRACTS)}"
            ) from None
    env = contract.bind_inputs(inputs, scalars=scalars)
    if outputs is not None:
        contract.check_outputs(outputs, env)
    return env


def _build_registry() -> dict[str, KernelContract]:
    floating = "floating"
    contracts = [
        KernelContract(
            "repro.nn.cosine.cosine_similarity",
            inputs={
                "left": ArraySpec(("B", "D"), floating),
                "right": ArraySpec(("B", "D"), floating),
            },
            outputs=(ArraySpec(("B",), floating),),
        ),
        KernelContract(
            "repro.nn.cosine.cosine_similarity_backward",
            inputs={"grad_out": ArraySpec(("B",), floating)},
            outputs=(
                ArraySpec(("B", "D"), floating),
                ArraySpec(("B", "D"), floating),
            ),
        ),
        KernelContract(
            "repro.nn.cosine.pair_cosine",
            inputs={
                "left": ArraySpec(("D",), floating),
                "right": ArraySpec(("D",), floating),
            },
        ),
        KernelContract(
            "repro.nn.cosine.exact_cosine",
            inputs={
                "left": ArraySpec(("D",), "number"),
                "right": ArraySpec(("D",), "number"),
            },
        ),
        KernelContract(
            "repro.nn.cosine.unit_rows",
            inputs={"matrix": ArraySpec(("N", "D"), floating)},
            outputs=(ArraySpec(("N", "D"), floating),),
        ),
        # P window positions of a packed stream, B segments (documents)
        # starting at ``starts``.
        KernelContract(
            "repro.nn.pooling.log_sum_exp_pool",
            inputs={
                "window_values": ArraySpec(("P", "K"), floating),
                "valid": ArraySpec(("P",), "bool"),
                "starts": ArraySpec(("B",), "integer"),
            },
            outputs=(ArraySpec(("B", "K"), floating),),
        ),
        KernelContract(
            "repro.nn.pooling.log_sum_exp_pool_backward",
            inputs={"grad_out": ArraySpec(("B", "K"), floating)},
            outputs=(ArraySpec(("P", "K"), floating),),
        ),
        KernelContract(
            "repro.nn.layers.Embedding.forward",
            inputs={"ids": ArraySpec(("T",), "integer")},
            outputs=(ArraySpec(("T", "D"), floating),),
        ),
        # T token vectors of one packed stream, whose last reach =
        # widest window - 1 are PAD zeros; C = K per window, summed.
        KernelContract(
            "repro.nn.layers.WindowedConv.forward",
            inputs={"token_vectors": ArraySpec(("T", "D"), floating)},
            outputs=(ArraySpec(("T - reach", "C"), floating),),
            scalars=("reach", "C"),
        ),
        # The whole extraction block of one source, by the arrays of
        # its PackedBatch: ids -> pooled features of every window.
        KernelContract(
            "repro.core.extraction.ConvExtractionModule.forward",
            inputs={
                "ids": ArraySpec(("T",), "integer"),
                "starts": ArraySpec(("B",), "integer"),
                "lengths": ArraySpec(("B",), "integer"),
            },
            outputs=(ArraySpec(("B", "C"), floating),),
            scalars=("C",),
        ),
        KernelContract(
            "repro.nn.layers.Affine.forward",
            inputs={"inputs": ArraySpec(("B", "D_in"), floating)},
            outputs=(ArraySpec(("B", "D_out"), floating),),
            scalars=("D_out",),
        ),
    ]
    return {contract.name: contract for contract in contracts}


CONTRACTS: dict[str, KernelContract] = _build_registry()
