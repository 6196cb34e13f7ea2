"""Runtime array contracts, exercised against the real nn kernels."""

import numpy as np
import pytest

from tests.contracts import (
    CONTRACTS,
    ArraySpec,
    ContractError,
    KernelContract,
    bind_shape,
    check_call,
)
from repro.nn.cosine import cosine_similarity, exact_cosine, pair_cosine, unit_rows
from repro.nn.pooling import log_sum_exp_pool, log_sum_exp_pool_backward

RNG = np.random.default_rng(7)


class TestArraySpec:
    def test_unknown_dtype_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown dtype kind"):
            ArraySpec(("B",), "float32ish")


class TestBindShape:
    def test_binds_and_unifies(self):
        env = {}
        bind_shape(ArraySpec(("B", "D")), (3, 5), env, "x")
        bind_shape(ArraySpec(("B", "D")), (3, 5), env, "y")
        assert env == {"B": 3, "D": 5}

    def test_conflict_raises(self):
        env = {}
        bind_shape(ArraySpec(("B", "W")), (2, 5), env, "values")
        with pytest.raises(ContractError, match="already bound"):
            bind_shape(ArraySpec(("B", "W")), (2, 4), env, "valid")

    def test_rank_mismatch(self):
        with pytest.raises(ContractError, match="rank mismatch"):
            bind_shape(ArraySpec(("B", "D")), (3,), {}, "x")

    def test_expression_dim(self):
        env = {"L": 10, "d": 3}
        bind_shape(ArraySpec(("B", "L - d + 1")), (2, 8), env, "out")
        with pytest.raises(ContractError, match="expected"):
            bind_shape(ArraySpec(("B", "L - d + 1")), (2, 7), env, "out")

    def test_unbound_expression_skipped(self):
        # no L/d in env: the derived dim cannot be checked yet
        bind_shape(ArraySpec(("B", "L - d + 1")), (2, 99), {"B": 2}, "out")


class TestRealKernels:
    def test_cosine_similarity_contract(self):
        left = RNG.normal(size=(6, 4))
        right = RNG.normal(size=(6, 4))
        sim, _ = cosine_similarity(left, right)
        env = check_call(
            "repro.nn.cosine.cosine_similarity",
            {"left": left, "right": right},
            outputs=sim,
        )
        assert env == {"B": 6, "D": 4}

    def test_pair_and_exact_cosine_contracts(self):
        a, b = RNG.normal(size=4), RNG.normal(size=4)
        pair_cosine(a, b)
        check_call("repro.nn.cosine.pair_cosine", {"left": a, "right": b})
        exact_cosine(a, b)
        check_call("repro.nn.cosine.exact_cosine", {"left": a, "right": b})

    def test_unit_rows_contract(self):
        matrix = RNG.normal(size=(5, 3))
        out = unit_rows(matrix)
        env = check_call(
            "repro.nn.cosine.unit_rows", {"matrix": matrix}, outputs=out
        )
        assert env == {"N": 5, "D": 3}

    def test_lse_pool_contract_forward_and_backward(self):
        window_values = RNG.normal(size=(2, 5, 3))
        valid = np.ones((2, 5), dtype=bool)
        pooled, cache = log_sum_exp_pool(window_values, valid)
        env = check_call(
            "repro.nn.pooling.log_sum_exp_pool",
            {"window_values": window_values, "valid": valid},
            outputs=pooled,
        )
        assert env == {"B": 2, "W": 5, "K": 3}
        grad = log_sum_exp_pool_backward(np.ones_like(pooled), cache)
        check_call(
            "repro.nn.pooling.log_sum_exp_pool_backward",
            {"grad_out": np.ones_like(pooled)},
            outputs=grad,
            scalars=env,
        )

    def test_mismatched_mask_rejected(self):
        window_values = RNG.normal(size=(2, 5, 3))
        valid = np.ones((2, 4), dtype=bool)
        with pytest.raises(ContractError, match="already bound"):
            check_call(
                "repro.nn.pooling.log_sum_exp_pool",
                {"window_values": window_values, "valid": valid},
            )

    def test_dtype_kind_enforced(self):
        with pytest.raises(ContractError, match="not bool"):
            check_call(
                "repro.nn.pooling.log_sum_exp_pool",
                {
                    "window_values": RNG.normal(size=(2, 5, 3)),
                    "valid": np.ones((2, 5)),  # float mask
                },
            )

    def test_integer_ids_enforced(self):
        with pytest.raises(ContractError, match="not integer"):
            check_call(
                "repro.nn.layers.Embedding.forward",
                {"ids": np.zeros((2, 7))},  # float ids
            )


class TestContractRegistry:
    def test_unknown_contract_name(self):
        with pytest.raises(KeyError, match="no contract registered"):
            check_call("repro.nn.nope", {})

    def test_windowed_conv_derived_output(self):
        contract = CONTRACTS["repro.nn.layers.WindowedConv.forward"]
        env = contract.bind_inputs(
            {"token_vectors": np.zeros((2, 10, 4))},
            scalars={"reach": 2, "C": 6},
        )
        contract.check_outputs(np.zeros((2, 8, 6)), env)
        with pytest.raises(ContractError):
            contract.check_outputs(np.zeros((2, 7, 6)), dict(env))

    def test_output_count_enforced(self):
        contract = KernelContract(
            "two_out",
            outputs=(ArraySpec(("B",)), ArraySpec(("B",))),
        )
        with pytest.raises(ContractError, match="expected 2 outputs"):
            contract.check_outputs([np.zeros(3)], {})
