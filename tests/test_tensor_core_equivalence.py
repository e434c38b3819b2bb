"""Fused-vs-reference byte-identity: the acceleration's hard contract.

The fused kernels (PR 10) promise more than numerical closeness: every
fused op replays the reference graph's float64 op order and backward
accumulation order exactly, so switching kernel modes changes *nothing*
about the computed bits.  That is what lets the fused core ship without
regenerating the golden sweep grids.  This suite enforces the contract at
every level:

- per-op forward/backward bitwise equality for each fused kernel,
- full model forward/backward and optimizer trajectories over many steps,
- the aliasing hazards the in-place accumulate must survive (two parents
  borrowing one ``out.grad``; a parameter reused twice in one graph),
- the fused linear's weight-gradient GEMM at every layer shape the grid,
  figure, lineup and bench paths build, over batches of 1 to 600 rows,
- the memory-layout clause: gradients leaving the core are C-contiguous,
  because downstream full-array reductions (gradient clipping) flatten in
  memory order — handing out a transpose view changed two golden cells by
  one ulp before this was pinned down,
- an end-to-end sweep cell, fused vs reference, compared ``==`` on the
  result dict.

Bitwise equality throughout: ``assert_array_equal`` (plus dtype checks),
never ``allclose``.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.tensor.backend as backend
from repro.defense import DPSGDDefense
from repro.fl.gradients import compute_batch_gradients, compute_defended_update
from repro.nn import MLP, SGD, Adam, CrossEntropyLoss, Linear
from repro.nn.resnet import small_cnn
from repro.tensor import (
    Tensor,
    batch_norm,
    conv2d,
    max_pool2d,
    reference_kernels,
)
from repro.tensor.fused import transposed_gemm_agrees


def bitwise_equal(a: np.ndarray, b: np.ndarray) -> None:
    assert a.dtype == b.dtype
    assert a.shape == b.shape
    np.testing.assert_array_equal(a, b)


def run_both(build):
    """Run ``build()`` under fused and reference kernels; return both."""
    assert backend.FUSED, "suite assumes the fused default"
    fused_result = build()
    with reference_kernels():
        reference_result = build()
    return fused_result, reference_result


def grad_through(build_graph, *points):
    """Backward a scalar graph; return (value bits, each point's grad)."""
    tensors = [Tensor(p.copy(), requires_grad=True) for p in points]
    loss = build_graph(*tensors)
    loss.backward()
    return (loss.data.copy(), [t.grad.copy() for t in tensors])


RNG_SEED = 20240


def _rng():
    return np.random.default_rng(RNG_SEED)


# ---------------------------------------------------------------------------
# Per-op equivalence
# ---------------------------------------------------------------------------


OP_GRAPHS = {
    "sub": (lambda a, b: (a - b).sum(), ((3, 4), (3, 4))),
    "sub_broadcast": (lambda a, b: ((a - b) * a).sum(), ((3, 1), (3, 4))),
    "rsub": (lambda a: ((2.5 - a) * a).sum(), ((2, 5),)),
    "mean": (lambda a: a.mean(), ((4, 6),)),
    "mean_axis": (lambda a: (a.mean(axis=1) * a.mean(axis=0).sum()).sum(), ((4, 6),)),
    "var": (lambda a: a.var(), ((4, 6),)),
    "var_axis": (lambda a: (a.var(axis=0) * a).sum(), ((4, 6),)),
    "shared_out_grad": (lambda a: (a + a).sum(), ((5,),)),
    "param_reused": (lambda a, b: ((a * b) + (a - b)).sum(), ((3, 3), (3, 3))),
}


@pytest.mark.parametrize("name", sorted(OP_GRAPHS), ids=sorted(OP_GRAPHS))
def test_op_bitwise_equivalence(name):
    graph, shapes = OP_GRAPHS[name]
    points = [_rng().standard_normal(s) for s in shapes]

    (value_f, grads_f), (value_r, grads_r) = run_both(
        lambda: grad_through(graph, *points)
    )
    bitwise_equal(np.asarray(value_f), np.asarray(value_r))
    for gf, gr in zip(grads_f, grads_r):
        bitwise_equal(gf, gr)


def test_cross_entropy_bitwise_equivalence():
    logits = _rng().standard_normal((6, 5))
    labels = np.array([0, 4, 2, 2, 1, 3])

    def build():
        return grad_through(lambda t: CrossEntropyLoss()(t, labels), logits)

    (value_f, grads_f), (value_r, grads_r) = run_both(build)
    bitwise_equal(np.asarray(value_f), np.asarray(value_r))
    bitwise_equal(grads_f[0], grads_r[0])


def test_linear_layer_bitwise_equivalence():
    x = _rng().standard_normal((7, 5))

    def build():
        layer = Linear(5, 3, rng=np.random.default_rng(3))
        out = layer(Tensor(x, requires_grad=True)).sum()
        out.backward()
        return (
            out.data.copy(),
            layer.weight.grad.copy(),
            layer.bias.grad.copy(),
        )

    fused_result, reference_result = run_both(build)
    for f, r in zip(fused_result, reference_result):
        bitwise_equal(np.asarray(f), np.asarray(r))


# (fan_in, fan_out) of every Linear the library's paths build: the
# ImprintedModel imprint/decoder/head at 32x32 (grid and lineups n = 64;
# attack/defense zoos 128; parallel bench 256; figures 7-12 and
# transform_study 300; figure 14 and quickstart 500) and at 64x64, the
# Sec. IV-D LinearClassifier, and the bench MLPs.
WEIGHT_GRAD_LAYERS = {
    "imprint-32px-n64": (3072, 64),
    "decoder-32px-n64": (64, 3072),
    "imprint-32px-n128": (3072, 128),
    "decoder-32px-n128": (128, 3072),
    "imprint-32px-n256": (3072, 256),
    "decoder-32px-n256": (256, 3072),
    "imprint-32px-n300": (3072, 300),
    "decoder-32px-n300": (300, 3072),
    "imprint-32px-n500": (3072, 500),
    "decoder-32px-n500": (500, 3072),
    "head-32px-c100": (3072, 100),
    "head-32px-c10": (3072, 10),
    "imprint-64px-n64": (12288, 64),
    "decoder-64px-n64": (64, 12288),
    "mlp-64-128": (64, 128),
    "mlp-128-64": (128, 64),
    "mlp-64-10": (64, 10),
    "mlp-192-64": (192, 64),
    "mlp-192-16": (192, 16),
    "mlp-16-4": (16, 4),
}
# Batch rows from 1 to 600: the grid's B = 4 and its OASIS-expanded
# batches (8, 16, 28), and figure 12's B = 64 expanded to 448.
WEIGHT_GRAD_ROWS = (1, 2, 3, 4, 8, 16, 28, 448, 600)


@pytest.mark.parametrize("layer", sorted(WEIGHT_GRAD_LAYERS))
def test_weight_gradient_gemm_matches_reference(layer):
    """The fused weight gradient is the reference's at every shape.

    The kernel takes ``g.T @ x`` only where its probe says BLAS sums it
    in the order of the reference's ``(x.T @ g).T``.  The verdict must
    hold on data the probe never saw, and the gradient must equal the
    reference chain's bit for bit whichever GEMM ran.
    """
    fan_in, fan_out = WEIGHT_GRAD_LAYERS[layer]
    linear = Linear(fan_in, fan_out, rng=np.random.default_rng(5))
    rng = _rng()
    inputs = rng.standard_normal((max(WEIGHT_GRAD_ROWS), fan_in))
    upstream = rng.standard_normal((max(WEIGHT_GRAD_ROWS), fan_out))
    for rows in WEIGHT_GRAD_ROWS:
        x, g = inputs[:rows], upstream[:rows]
        identity = np.array_equal(g.T @ x, np.ascontiguousarray((x.T @ g).T))
        assert transposed_gemm_agrees(rows, fan_in, fan_out, "<f8") == identity

        def build():
            linear.zero_grad()
            linear(Tensor(x)).backward(g)
            assert linear.weight.grad.flags["C_CONTIGUOUS"]
            return linear.weight.grad.copy()

        fused_grad, reference_grad = run_both(build)
        bitwise_equal(fused_grad, reference_grad)


@pytest.mark.parametrize(
    "op",
    ["conv", "conv_stride_pad", "max_pool", "bn"],
)
def test_conv_family_bitwise_equivalence(op):
    rng = _rng()
    x = rng.standard_normal((2, 3, 6, 6))
    w = rng.standard_normal((4, 3, 3, 3)) * 0.3
    b = rng.standard_normal(4) * 0.1
    gamma, beta = rng.uniform(0.5, 1.5, 3), rng.standard_normal(3) * 0.1

    def graph(t):
        if op == "conv":
            return conv2d(t, Tensor(w), Tensor(b)).sum()
        if op == "conv_stride_pad":
            return conv2d(t, Tensor(w), None, stride=2, padding=1).sum()
        if op == "max_pool":
            return max_pool2d(t, 2).sum()
        return batch_norm(
            t, Tensor(gamma), Tensor(beta), np.zeros(3), np.ones(3),
            training=True,
        ).sum()

    (value_f, grads_f), (value_r, grads_r) = run_both(
        lambda: grad_through(graph, x)
    )
    bitwise_equal(np.asarray(value_f), np.asarray(value_r))
    bitwise_equal(grads_f[0], grads_r[0])


def test_conv2d_weight_grads_bitwise_equivalence():
    rng = _rng()
    x = Tensor(rng.standard_normal((2, 2, 5, 5)))
    w = rng.standard_normal((3, 2, 3, 3)) * 0.3
    b = rng.standard_normal(3) * 0.1

    def build():
        wt = Tensor(w.copy(), requires_grad=True)
        bt = Tensor(b.copy(), requires_grad=True)
        conv2d(x, wt, bt, padding=1).sum().backward()
        return wt.grad.copy(), bt.grad.copy()

    (wf, bf), (wr, br) = run_both(build)
    bitwise_equal(wf, wr)
    bitwise_equal(bf, br)


# ---------------------------------------------------------------------------
# Whole-model and optimizer trajectories
# ---------------------------------------------------------------------------


def _mlp_batch():
    rng = _rng()
    images = rng.standard_normal((6, 12))
    labels = rng.integers(0, 4, size=6)
    return images, labels


def test_model_gradients_bitwise_equivalence():
    images, labels = _mlp_batch()

    def build():
        model = MLP([12, 10, 4], rng=np.random.default_rng(11))
        grads, loss = compute_batch_gradients(
            model, CrossEntropyLoss(), images, labels
        )
        return grads, loss

    (grads_f, loss_f), (grads_r, loss_r) = run_both(build)
    assert loss_f == loss_r
    assert set(grads_f) == set(grads_r)
    for name in sorted(grads_f):
        bitwise_equal(grads_f[name], grads_r[name])


def test_cnn_gradients_bitwise_equivalence():
    rng = _rng()
    images = rng.standard_normal((2, 3, 8, 8))
    labels = rng.integers(0, 4, size=2)

    def build():
        model = small_cnn(4, rng=np.random.default_rng(13))
        return compute_batch_gradients(model, CrossEntropyLoss(), images, labels)

    (grads_f, loss_f), (grads_r, loss_r) = run_both(build)
    assert loss_f == loss_r
    for name in sorted(grads_f):
        bitwise_equal(grads_f[name], grads_r[name])


@pytest.mark.parametrize(
    "make_optimizer",
    [
        lambda params: SGD(params, lr=0.05),
        lambda params: SGD(params, lr=0.05, momentum=0.9, weight_decay=1e-3),
        lambda params: Adam(params, lr=0.01),
        lambda params: Adam(params, lr=0.01, weight_decay=1e-3),
    ],
    ids=["sgd", "sgd_momentum_wd", "adam", "adam_wd"],
)
def test_training_trajectory_bitwise_equivalence(make_optimizer):
    """Ten full update steps: identical parameter bits at every step."""
    images, labels = _mlp_batch()

    def build():
        model = MLP([12, 10, 4], rng=np.random.default_rng(17))
        optimizer = make_optimizer(model.parameters())
        loss_fn = CrossEntropyLoss()
        snapshots = []
        for _ in range(10):
            model.zero_grad()
            loss = loss_fn(model(Tensor(images)), labels)
            loss.backward()
            optimizer.step()
            snapshots.append(model.state_dict())
        return snapshots

    fused_steps, reference_steps = run_both(build)
    for step_f, step_r in zip(fused_steps, reference_steps):
        for name in sorted(step_f):
            bitwise_equal(step_f[name], step_r[name])


def test_mid_graph_mode_switch_is_safe():
    """Both modes are value-identical, so switching between graphs is too."""
    images, labels = _mlp_batch()

    def once(seed):
        model = MLP([12, 10, 4], rng=np.random.default_rng(seed))
        grads, _ = compute_batch_gradients(
            model, CrossEntropyLoss(), images, labels
        )
        return grads

    plain = once(23)
    with reference_kernels():
        pass  # enter and leave: the mode must restore to fused
    again = once(23)
    for name in sorted(plain):
        bitwise_equal(plain[name], again[name])


# ---------------------------------------------------------------------------
# The memory-layout clause and the dpsgd clipping path
# ---------------------------------------------------------------------------


def test_transferred_gradients_are_c_contiguous():
    """Grads leaving the core must be C-contiguous owned arrays.

    Regression for the one-ulp golden drift: the reference computes the
    weight gradient as the transposed view ``(x.T @ g).T``; transferring
    that *view* out of ``grad_dict`` changed the flattening order of
    ``np.sum(g ** 2)`` in the clipping path.  The fused Linear writes
    ``g.T @ x`` straight into a C-order pooled buffer, or copies the
    reference GEMM's result into one.
    """
    images, labels = _mlp_batch()
    model = MLP([12, 10, 4], rng=np.random.default_rng(29))
    grads, _ = compute_batch_gradients(model, CrossEntropyLoss(), images, labels)
    for name in sorted(grads):
        assert grads[name].flags["C_CONTIGUOUS"], name
        assert grads[name].base is None, name


def test_clipped_per_sample_path_bitwise_equivalence():
    """The exact pipeline behind the dpsgd golden cells, fused vs reference."""
    images, labels = _mlp_batch()

    def build():
        model = MLP([12, 10, 4], rng=np.random.default_rng(31))
        return compute_defended_update(
            model, CrossEntropyLoss(), images, labels,
            DPSGDDefense(clip_norm=1.0, noise_multiplier=0.0),
            np.random.default_rng(0),
        )

    (grads_f, loss_f, count_f, _), (grads_r, loss_r, count_r, _) = run_both(build)
    assert sorted(grads_f) == sorted(grads_r)
    for name in sorted(grads_f):
        bitwise_equal(grads_f[name], grads_r[name])
    assert loss_f == loss_r
    assert count_f == count_r == len(images)


# ---------------------------------------------------------------------------
# End to end: one sweep cell
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("cell_spec", ["rtfxWO", "linearxdpsgd"])
def test_sweep_cell_bitwise_equivalence(cell_spec):
    from repro.experiments.sweep import GRID_PRESETS

    attack, _, defense = cell_spec.partition("x")

    def build():
        runner = GRID_PRESETS["smoke"](
            0, 1, None, attacks=(attack,), defenses=(defense,)
        )
        (cell,) = runner.cells()
        return runner.run_cell(cell)

    fused_result, reference_result = run_both(build)
    assert fused_result == reference_result
