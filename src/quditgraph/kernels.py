"""Gate kernels: the basis permutations of the A, D, C, V and W gates.

Every gate except the Fourier gate permutes the base-d digits of one or two
wires.  A state of d^N amplitudes viewed as (outer, d, stride) puts the digit
of the wire with that stride on its own axis, so each gate is a gather along
one axis of a strided view:

    axis_perm   one take along the digit axis (A, D and V gates)
    swap        one copy through the (outer, d, mid, d, inner) view with the
                two digit axes exchanged (W gate)
    cnot        one take along the target axis per control value (C gate)

The kernels are dtype-agnostic: run on an integer arange they return the
gate's gather map.  They call the ndarray.take method rather than np.take,
whose wrapper overhead shows on tiny registers such as the dressed states
of dual-check (256 amplitudes for 8 GF(2) wires), and pass mode="clip" so
take writes straight into `out`; every index is a digit in range(d), so
clipping never changes one.  `amps` and `out` must be distinct C-contiguous
arrays of the same size.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"


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
    """
    shape = _pair_shape(amps.size, d, stride_c, stride_t)
    src, dst = amps.reshape(shape), out.reshape(shape)
    for c in range(d):
        if stride_c > stride_t:
            s, o, axis = src[:, c], dst[:, c], 2
        else:
            s, o, axis = src[..., c, :], dst[..., c, :], 1
        s.take(src_digits[c], axis=axis, out=o, mode="clip")
    return out


def swap(amps, out, d, stride_a, stride_b):
    """Exchange the digits of the wires with strides stride_a and stride_b."""
    shape = _pair_shape(amps.size, d, stride_a, stride_b)
    np.copyto(out.reshape(shape), amps.reshape(shape).swapaxes(1, 3))
    return out
