"""Reverse-mode gradient tape over a fixed set of dense operations.

The op set is deliberately closed: matrix product, temporal convolution
(with the embedding's dropout and ReLU), row-wise cosine similarity,
temperature softmax, clamped cross-entropy, elementwise maps and reductions.
Each op records its forward value plus whatever the adjoint needs, and
``backward`` walks the tape once in reverse with hand-written adjoint rules.
``finite_diff_check`` is the verification harness for those rules.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, InputError

NORM_EPS = 1e-8  # clamp for cosine denominators; zero-norm rows score 0
LOG_FLOOR = 1e-12


@dataclass
class Node:
    op: str
    inputs: tuple[int, ...]
    value: np.ndarray
    ctx: dict  # what the op's adjoint reads besides the input values
    name: str | None = None


class Tape:
    """Ordered record of one forward pass. Single-owner, single-threaded.

    Each op method checks its operands, computes its value and records one
    node through ``_push``; the op's adjoint is its entry in ``_BACKWARD``.
    """

    def __init__(self) -> None:
        self.nodes: list[Node] = []
        self._unit: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}  # ref -> _unit_rows

    def val(self, ref: int) -> np.ndarray:
        return self.nodes[ref].value

    def _push(self, op: str, inputs: tuple[int, ...], value: np.ndarray,
              name: str | None = None, **ctx) -> int:
        self.nodes.append(Node(op, inputs, value, ctx, name))
        return len(self.nodes) - 1

    def _same_shape(self, op: str, a: int, b: int) -> tuple[np.ndarray, np.ndarray]:
        x, y = self.val(a), self.val(b)
        if x.shape != y.shape:
            raise ContractError(f"{op} shape mismatch {x.shape} vs {y.shape}")
        return x, y

    def leaf(self, value, name: str | None = None) -> int:
        return self._push("leaf", (), np.asarray(value), name)

    def add(self, a: int, b: int) -> int:
        x, y = self._same_shape("add", a, b)
        return self._push("add", (a, b), x + y)

    def mul(self, a: int, b: int) -> int:
        x, y = self._same_shape("mul", a, b)
        return self._push("mul", (a, b), x * y)

    def mul_const(self, a: int, const: float) -> int:
        x = self.val(a)
        c = np.asarray(float(const), dtype=x.dtype)
        return self._push("mul_const", (a,), x * c, const=c)

    def matmul(self, a: int, b: int) -> int:
        x, y = self.val(a), self.val(b)
        if x.ndim != 2 or y.ndim != 2 or x.shape[1] != y.shape[0]:
            raise ContractError(f"matmul shapes {x.shape} x {y.shape}")
        return self._push("matmul", (a, b), x @ y)

    def transpose(self, a: int) -> int:
        return self._push("transpose", (a,), self.val(a).T.copy())

    def reshape(self, a: int, shape: tuple[int, ...]) -> int:
        return self._push("reshape", (a,), self.val(a).reshape(tuple(shape)).copy())

    def temporal_conv(self, x: int, w: int, b: int, mask: np.ndarray | None = None,
                      keep: float = 1.0) -> int:
        """One embedding layer: 1-d convolution over time, then dropout, then ReLU.

        x: (T, d_in); w: (k*d_in, d_out) in tap-major layout, k odd; b: (d_out,)
        -> (T, d_out). Row block i of w, ``w[i*d_in:(i+1)*d_in]``, is the slice
        for tap i, so conv[t] = b + sum_i xp[t + i] @ w_i with xp the input
        zero-padded by k // 2 rows at each end. That is ``windows @ w + b``,
        where row t of ``windows`` concatenates xp[t], ..., xp[t + k - 1].
        The value is ``relu(conv * mask)``; ``mask`` (T, d_out), when given,
        holds 0 or 1/keep in each entry. The node keeps only its value: the
        adjoint gates by value > 0, which is zero wherever the mask or the ReLU
        zeroed an entry, and scales by 1/keep.
        """
        xv, wv, bv = self.val(x), self.val(w), self.val(b)
        if xv.ndim != 2 or wv.ndim != 2 or bv.ndim != 1:
            raise ContractError("temporal_conv rank mismatch")
        t, d_in = xv.shape
        rows, d_out = wv.shape
        if t == 0:
            raise InputError("temporal_conv on empty sequence")
        if d_in == 0 or rows % d_in or bv.shape[0] != d_out:
            raise ContractError(
                f"temporal_conv shapes x={xv.shape} w={wv.shape} b={bv.shape}")
        k = rows // d_in
        if k % 2 == 0 or k < 1:
            raise ContractError(f"kernel size {k} must be odd")
        out = _windows(xv, k) @ wv + bv.astype(xv.dtype, copy=False)
        inv_keep = None
        if mask is not None:
            if mask.shape != out.shape:
                raise ContractError(f"temporal_conv mask shape {mask.shape} vs {out.shape}")
            out *= mask
            inv_keep = np.ones((), out.dtype) / keep  # a kept entry of the mask, bit for bit
        np.maximum(out, 0, out=out)
        return self._push("temporal_conv", (x, w, b), out, k=k, inv_keep=inv_keep)

    def cosine_rows(self, a: int, b: int, scale: float) -> int:
        """out[i, j] = scale * cos(a_i, b_j), norms clamped at NORM_EPS."""
        scale = float(scale)
        av, bv = self.val(a), self.val(b)
        if av.ndim != 2 or bv.ndim != 2 or av.shape[1] != bv.shape[1]:
            raise ContractError(f"cosine_rows shapes {av.shape} vs {bv.shape}")
        if av.shape[1] < 1:
            raise ContractError("cosine_rows needs at least one column")
        if scale <= 0:
            raise ContractError(f"cosine scale {scale} must be positive")
        ahat, u, a_clamped = self._unit_rows(a)
        bhat, v, b_clamped = self._unit_rows(b)
        cos = np.clip(ahat @ bhat.T, -1.0, 1.0)
        return self._push("cosine_rows", (a, b), scale * cos, scale=scale, ahat=ahat,
                          bhat=bhat, cos=cos, u=u, v=v, a_clamped=a_clamped,
                          b_clamped=b_clamped)

    def _unit_rows(self, ref: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The rows of node ``ref`` over their norms clamped at NORM_EPS, those
        clamped norms, and which rows sat on the clamp. Computed once per node,
        so every cosine_rows on one input shares the arrays."""
        if ref not in self._unit:
            rows = self.val(ref)
            if not np.isfinite(rows).all():
                raise InputError("cosine_rows received non-finite input")
            norm = np.linalg.norm(rows, axis=1)
            clamped = np.maximum(norm, NORM_EPS)
            self._unit[ref] = (rows / clamped[:, None], clamped, norm < NORM_EPS)
        return self._unit[ref]

    def softmax(self, a: int, tau, axis: int = 0) -> int:
        """Temperature softmax along ``axis``. A sequence of H temperatures
        stacks one softmax per temperature on a new leading axis: (H, *shape)."""
        tau = tuple(map(float, tau)) if np.ndim(tau) else float(tau)
        axis = int(axis)
        x = self.val(a)
        # temperatures take the input's dtype, so float32 scores stay float32
        taus = np.asarray(tau, dtype=x.dtype)
        if x.size == 0 or taus.size == 0:
            raise ContractError("softmax of empty input")
        if not (taus > 0).all():
            raise ContractError(f"softmax temperature {tau} must be positive")
        out_axis = axis % x.ndim + taus.ndim  # behind the stacked axis
        taus = taus.reshape(taus.shape + (1,) * x.ndim)
        z = taus * x
        z = z - z.max(axis=out_axis, keepdims=True)
        e = np.exp(z)
        # keep entries strictly positive even when exp underflows
        e = np.maximum(e, np.finfo(e.dtype).tiny)
        s = e / e.sum(axis=out_axis, keepdims=True)
        return self._push("softmax", (a,), s, taus=taus, axis=out_axis)

    def nce(self, p: int, target) -> int:
        """-target . log(p), with p clamped at LOG_FLOOR before the log: a scalar."""
        pv, target = self.val(p), np.asarray(target)
        if pv.shape != target.shape:
            raise ContractError(f"nce probability/target mismatch {pv.shape} vs {target.shape}")
        clamped, neg_t = np.maximum(pv, LOG_FLOOR), (-target).astype(pv.dtype)
        return self._push("nce", (p,), np.asarray((np.log(clamped) * neg_t).sum()),
                          clamped=clamped, neg_t=neg_t)

    def sum(self, a: int, axis: int | tuple[int, ...]) -> int:
        return self._push("sum", (a,), np.asarray(self.val(a).sum(axis=axis)), axis=axis)


def _windows(x: np.ndarray, k: int) -> np.ndarray:
    """(T, k*d_in): row t concatenates xp[t], ..., xp[t + k - 1], where xp is
    ``x`` zero-padded by k // 2 rows at each end. Rebuilt for the adjoint
    rather than kept on the tape."""
    t, d_in = x.shape
    pad = k // 2
    windows = np.zeros((t, k * d_in), dtype=x.dtype)
    for i in range(k):
        shift = i - pad  # column block i holds x[t + shift]
        lo, hi = max(0, -shift), min(t, t - shift)
        if lo < hi:
            windows[lo:hi, i * d_in:(i + 1) * d_in] = x[lo + shift:hi + shift]
    return windows


def _conv_backward(node: Node, g: np.ndarray, values, wanted):
    x, w, _ = values
    t, d_in = x.shape
    k, inv_keep = node.ctx["k"], node.ctx["inv_keep"]
    pad = k // 2
    g = g * (node.value > 0)  # the ReLU gate, which is also the dropout gate
    if inv_keep is not None:
        g *= inv_keep
    db = g.sum(axis=0)
    dw = _windows(x, k).T @ g
    if not wanted[0]:  # e.g. the raw features: k products nobody reads
        return [None, dw, db]
    dxp = np.zeros((t + 2 * pad, d_in), dtype=g.dtype)
    for i in range(k):  # tap by tap: no T x k*d_in product is held
        dxp[i:i + t] += g @ w[i * d_in:(i + 1) * d_in].T
    return [dxp[pad:pad + t], dw, db]


def _cosine_backward(node: Node, g: np.ndarray, values, wanted):
    c = node.ctx
    scale = c["scale"]
    ahat, bhat, cos, u, v = c["ahat"], c["bhat"], c["cos"], c["u"], c["v"]
    s = g * cos
    # d cos_ij / d a_i = bhat_j / u_i - cos_ij * ahat_i / u_i
    # (norm-derivative term vanishes where the norm sits on the clamp)
    row_s = s.sum(axis=1)
    row_s = np.where(c["a_clamped"], 0.0, row_s)
    da = scale * ((g @ bhat) - row_s[:, None] * ahat) / u[:, None]
    col_s = s.sum(axis=0)
    col_s = np.where(c["b_clamped"], 0.0, col_s)
    db = scale * ((g.T @ ahat) - col_s[:, None] * bhat) / v[:, None]
    return [da, db]


def _softmax_backward(node: Node, g: np.ndarray, values, wanted):
    s = node.value
    taus, axis = node.ctx["taus"], node.ctx["axis"]
    gs = g * s
    dz = taus * (gs - s * gs.sum(axis=axis, keepdims=True))
    return [dz.sum(axis=0) if dz.ndim > values[0].ndim else dz]


_BACKWARD = {
    "add": lambda n, g, v, _: [g, g],
    "mul": lambda n, g, v, _: [g * v[1], g * v[0]],
    "mul_const": lambda n, g, v, _: [g * n.ctx["const"]],
    "matmul": lambda n, g, v, _: [g @ v[1].T, v[0].T @ g],
    "transpose": lambda n, g, v, _: [g.T],
    "reshape": lambda n, g, v, _: [g.reshape(v[0].shape)],
    "temporal_conv": _conv_backward,
    "cosine_rows": _cosine_backward,
    "softmax": _softmax_backward,
    "nce": lambda n, g, v, _: [g * n.ctx["neg_t"] / n.ctx["clamped"] * (v[0] > LOG_FLOOR)],
    "sum": lambda n, g, v, _: [
        np.broadcast_to(np.expand_dims(g, n.ctx["axis"]), v[0].shape).astype(v[0].dtype)],
}


def backward(tape: Tape, loss_ref: int, into: dict[str, np.ndarray],
             corrupt_op: str | None = None) -> None:
    """Add the gradient of a scalar node w.r.t. every named leaf, in place, into
    that name's buffer in ``into``; a leaf the loss does not reach adds nothing.
    The tape is walked in reverse, so a leaf's sum is complete at its own visit,
    where it is added once. A leaf recorded just before its first consumer is
    visited right after that consumer, so its gradient is added and freed as
    soon as it is complete.

    Each rule is told which of its inputs want an adjoint: all but the unnamed
    leaves. It may return None for those, so the adjoint of the raw features
    is never computed.

    ``corrupt_op`` deliberately mis-scales the adjoint of one op kind; it
    exists so the finite-difference harness can prove its own sensitivity.
    """
    loss = tape.nodes[loss_ref]
    if loss.value.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.value.shape}")
    adjoint: list[np.ndarray | None] = [None] * len(tape.nodes)
    adjoint[loss_ref] = np.ones_like(loss.value)
    for idx in range(loss_ref, -1, -1):
        node = tape.nodes[idx]
        g, adjoint[idx] = adjoint[idx], None  # each adjoint is read once
        if node.op == "leaf" and node.name is not None and g is not None:
            into[node.name] += g
        if node.op == "leaf" or g is None:
            continue
        wanted = [tape.nodes[i].op != "leaf" or tape.nodes[i].name is not None
                  for i in node.inputs]
        in_grads = _BACKWARD[node.op](node, g, [tape.nodes[i].value for i in node.inputs],
                                      wanted)
        for ref, ig, want in zip(node.inputs, in_grads, wanted):
            if not want:
                continue
            if node.op == corrupt_op:
                ig = ig * 1.05
            adjoint[ref] = ig if adjoint[ref] is None else adjoint[ref] + ig
        del in_grads, ig  # else a parameter gradient lives on through the next rule


@dataclass
class GradCheckResult:
    max_rel_error: float
    where: str  # the worst coordinate as ``name[index]``; "-" while every error is 0


def finite_diff_check(f, params: dict[str, np.ndarray], step: float) -> GradCheckResult:
    """Compare analytic gradients against central finite differences.

    ``f(params)`` must return ``(scalar loss, {name: grad})``.
    Error per coordinate is |analytic - cd| / max(|analytic|, |cd|, 1e-8), or
    infinite where the gradient or either evaluation is not finite.
    """
    if step <= 0:
        raise ContractError(f"finite difference step {step} must be positive")
    grads = f(params)[1]
    worst = GradCheckResult(0.0, "-")
    for name in sorted(params):
        p = params[name]
        g = np.asarray(grads[name])
        for idx in np.ndindex(p.shape):
            orig = p[idx]
            p[idx] = orig + step
            lp = float(f(params)[0])
            p[idx] = orig - step
            lm = float(f(params)[0])
            p[idx] = orig
            cd = (lp - lm) / (2 * step)
            rel = (abs(g[idx] - cd) / max(abs(g[idx]), abs(cd), 1e-8)
                   if np.isfinite([lp, lm, g[idx]]).all() else np.inf)
            if rel > worst.max_rel_error:
                worst = GradCheckResult(rel, f"{name}{list(idx)}")
    return worst
