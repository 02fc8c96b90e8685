"""Gate kernels: the basis permutations of the A, D, C, V and W gates and the Fourier gate H.

Every gate except the Fourier gate permutes the base-d digits of one or two
wires.  A state of d^N amplitudes viewed as (outer, d, stride) puts the digit
of the wire with that stride on its own axis, so each gate is one pass over
a contiguous view of the state that writes straight into `out`:

    axis_perm   one take along the digit axis (A, D and V gates)
    swap        one copy through the (outer, d, mid, d, inner) view with the
                two digit axes exchanged (W gate)
    cnot        one take along the merged (d, mid, d) axis of the
                (outer, d * mid * d, inner) view, with an index of d^2 * mid
                entries (C gate)
    fourier     one matrix product with the d x d Fourier matrix (H gate)

The simulator runs one kernel per gate over every field.  The CLI
simulates a circuit over characteristic 2 with no kernel
(simulator.quadratic_form_support), so there the kernels serve the dense
oracles only.

No kernel allocates a temporary the size of the state: the largest one is
the C gate's index, which is the size of the state only for the wire pair
(1, N).  The permutation kernels are dtype-agnostic: run on an integer
arange they return the gather map.  fourier keeps the dtype of its
operands: a real table on real amplitudes, as over characteristic 2, is a
real dgemm.  The permutation kernels call the ndarray.take method rather
than np.take, whose wrapper overhead shows on tiny registers, and pass
mode="clip" so take writes straight into `out`; every index is in range,
so clipping never changes one.  `amps` and `out` must be distinct
C-contiguous arrays of the same size.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"

# Up to this row length a batched (d x d) @ (d x stride) matmul costs more in
# per-matrix overhead than one gemm against kron(h, I_stride) wastes in zeros;
# the cap also keeps the kron matrix at 32 x 32 entries or fewer.
FOURIER_KRON_MAX = 32


def _pair_shape(size: int, d: int, stride_a: int, stride_b: int) -> tuple[int, ...]:
    """(outer, d, mid, d, inner) view shape for the digits of two wires."""
    hi, lo = max(stride_a, stride_b), min(stride_a, stride_b)
    return (size // (d * hi), d, hi // (d * lo), d, lo)


def axis_perm(amps, out, d, stride, src_digit):
    """out[..., w, ...] = amps[..., src_digit[w], ...] along the digit axis of `stride`."""
    shape = (amps.size // (d * stride), d, stride)
    amps.reshape(shape).take(src_digit, axis=1, out=out.reshape(shape), mode="clip")
    return out


def cnot(amps, out, d, stride_c, stride_t, src_digits):
    """Where the control digit is c, target digit t takes the amplitude of src_digits[c, t].

    For the gate C(b), src_digits[c, t] = t - b*c: one d x d table per gate.
    The state is viewed as (outer, d * mid * d, inner), the higher-stride
    digit, the digits between the two wires and the lower-stride digit
    merged into one axis, and gathered once along it.  Entry (h, m, l) of
    the index is the merged position of its source, h' * mid * d + m * d + l',
    where only the target digit differs from (h, l).
    """
    outer, _, mid, _, inner = _pair_shape(amps.size, d, stride_c, stride_t)
    span = mid * d
    digits = np.arange(d)
    if stride_c > stride_t:  # h is the control digit: shift l to src_digits[h, l]
        shift = src_digits - digits
    else:  # l is the control digit: shift h to src_digits[l, h]
        shift = (src_digits.T - digits[:, None]) * span
    idx = np.arange(d * span).reshape(d, mid, d)  # the identity, h * span + m * d + l
    # Shifted in place, one scalar per (h, l) line or one d x d table per m
    # plane, whichever takes fewer steps (at most the square root of the
    # index size): a broadcast add over the short l axis would allocate
    # numpy's 8192-entry ufunc buffer.
    if d * d <= mid:
        for h, l in zip(*np.nonzero(shift)):
            idx[h, :, l] += shift[h, l]
    else:
        for plane in idx.transpose(1, 0, 2):
            plane += shift
    shape = (outer, d * span, inner)
    amps.reshape(shape).take(idx.reshape(-1), axis=1, out=out.reshape(shape), mode="clip")
    return out


def swap(amps, out, d, stride_a, stride_b):
    """Exchange the digits of the wires with strides stride_a and stride_b."""
    shape = _pair_shape(amps.size, d, stride_a, stride_b)
    np.copyto(out.reshape(shape), amps.reshape(shape).swapaxes(1, 3))
    return out


def fourier(amps, out, d, stride, h):
    """out = h applied to the digit of the wire with this stride; h is the d x d Fourier matrix.

    The last wire (stride 1) and short rows (d * stride <= FOURIER_KRON_MAX)
    take one gemm of the (outer, d * stride) view against kron(h, I_stride).T;
    longer rows one batched matmul of h with the (outer, d, stride) view.
    """
    row = d * stride
    if stride == 1 or row <= FOURIER_KRON_MAX:
        gate = h
        if stride > 1:  # kron(h, I_stride), without np.kron's 30 us of overhead
            gate = np.zeros((d, stride, d, stride), dtype=h.dtype)
            diag = np.arange(stride)
            gate[:, diag, :, diag] = h
        np.matmul(amps.reshape(-1, row), gate.reshape(row, row).T, out=out.reshape(-1, row))
    else:
        shape = (amps.size // row, d, stride)
        np.matmul(h, amps.reshape(shape), out=out.reshape(shape))
    return out
