"""The :class:`Tensor` class: a numpy array that records its history.

Each differentiable operation returns a new ``Tensor`` holding references to
its parent tensors and a closure that, given the gradient of the loss with
respect to the output, accumulates gradients into the parents.  Calling
``backward()`` on a scalar tensor runs those closures in reverse topological
order.

Broadcasting follows numpy semantics; gradients flowing into a broadcast
operand are reduced back to the operand's shape by :func:`unbroadcast`.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

_state = threading.local()
_DEFAULT_DTYPE = np.float32

#: Op-level profiler hook, installed by :mod:`repro.perf.profiler`.  ``None``
#: (the default) keeps the engine at zero profiling overhead: one global load
#: and an ``is None`` test per op.  When set, it is called as
#: ``hook(op_name, output_nbytes)`` at every op boundary.
_profile_hook = None

#: Write-sanitizer hook, installed by :mod:`repro.analysis.sanitizer`.  When
#: set, it is called as ``hook(out, parents, backward)`` for every recorded
#: graph node so the sanitizer can freeze the arrays the node can observe.
_sanitize_hook = None


def set_default_dtype(dtype) -> None:
    """Set the dtype used for newly created tensors (float32 or float64)."""
    global _DEFAULT_DTYPE
    dtype = np.dtype(dtype).type
    if dtype not in (np.float32, np.float64):
        raise ValueError("default dtype must be float32 or float64")
    _DEFAULT_DTYPE = dtype


def get_default_dtype():
    """Return the dtype used for newly created tensors."""
    return _DEFAULT_DTYPE


def _grad_enabled() -> bool:
    return getattr(_state, "grad_enabled", True)


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph recording (like ``torch.no_grad``)."""
    previous = _grad_enabled()
    _state.grad_enabled = False
    try:
        yield
    finally:
        _state.grad_enabled = previous


def unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce ``grad`` so that it has ``shape``, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum out prepended axes.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum along axes that were broadcast from size 1.
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _is_basic_index(index) -> bool:
    """True for numpy basic indexing (ints, slices, ``None``, ``...``),
    which never selects one position twice; arrays, lists and booleans are
    advanced indexing."""
    items = index if isinstance(index, tuple) else (index,)
    return all(
        item is None or item is Ellipsis or isinstance(item, slice)
        or (isinstance(item, (int, np.integer)) and not isinstance(item, bool))
        for item in items)


ArrayLike = Union["Tensor", np.ndarray, float, int, list, tuple]


class Tensor:
    """A multi-dimensional array supporting reverse-mode differentiation."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "_op")
    __array_priority__ = 100  # ensure ndarray + Tensor dispatches to Tensor

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _parents: Sequence["Tensor"] = (),
        _op: str = "",
    ):
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(_DEFAULT_DTYPE)
        self.data: np.ndarray = arr
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad) and _grad_enabled()
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: tuple = tuple(_parents) if self.requires_grad else ()
        self._op = _op

    # ------------------------------------------------------------------
    # Basic introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_txt = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({self.data!r}{grad_txt})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (detached view)."""
        return self.data

    def item(self) -> float:
        return float(self.data.item())

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # Graph construction helper
    # ------------------------------------------------------------------
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
        op: str,
    ) -> "Tensor":
        if _profile_hook is not None:
            _profile_hook(op, data.nbytes if isinstance(data, np.ndarray) else 0)
        if not _grad_enabled():
            # Inference fast path: no parent tuple, no requires_grad scan, no
            # backward closure retained — the graph is never recorded.
            arr = data if isinstance(data, np.ndarray) else np.asarray(data)
            if arr.dtype not in (np.float32, np.float64):
                arr = arr.astype(_DEFAULT_DTYPE)
            out = Tensor.__new__(Tensor)
            out.data = arr
            out.grad = None
            out.requires_grad = False
            out._backward = None
            out._parents = ()
            out._op = op
            return out
        requires = any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires, _parents=parents if requires else (), _op=op)
        if requires:
            out._backward = backward
            if _sanitize_hook is not None:
                _sanitize_hook(out, parents, backward)
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if not self.requires_grad:
            return
        grad = np.asarray(grad, dtype=self.data.dtype)
        if self.grad is None:
            self.grad = grad.copy() if grad.base is not None or grad is self.data else grad
        else:
            self.grad = self.grad + grad

    # ------------------------------------------------------------------
    # Backward pass
    # ------------------------------------------------------------------
    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Run reverse-mode differentiation from this tensor.

        ``grad`` defaults to 1 for scalar tensors; non-scalar tensors require
        an explicit output gradient of matching shape.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar outputs")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)
        if grad.shape != self.data.shape:
            raise ValueError(f"grad shape {grad.shape} != tensor shape {self.data.shape}")

        order: list[Tensor] = []
        visited: set[int] = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        hook = _profile_hook
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                if hook is not None:
                    # Boundary timing in the profiler attributes the elapsed
                    # time since the last event to this closure.
                    hook("bwd:" + node._op, 0)

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def _coerce(self, value: ArrayLike) -> "Tensor":
        if isinstance(value, Tensor):
            return value
        if isinstance(value, (int, float)):
            # Keep scalar constants in this tensor's dtype; otherwise numpy
            # promotes float32 computations to float64 silently.
            return Tensor(np.asarray(value, dtype=self.data.dtype))
        return Tensor(value)

    def __add__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(unbroadcast(grad, self.shape))
            other._accumulate(unbroadcast(grad, other.shape))

        return Tensor._make(data, (self, other), backward, "add")

    __radd__ = __add__

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        data = self.data - other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(unbroadcast(grad, self.shape))
            other._accumulate(unbroadcast(-grad, other.shape))

        return Tensor._make(data, (self, other), backward, "sub")

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return self._coerce(other) - self

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(unbroadcast(grad * other.data, self.shape))
            other._accumulate(unbroadcast(grad * self.data, other.shape))

        return Tensor._make(data, (self, other), backward, "mul")

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(unbroadcast(grad / other.data, self.shape))
            other._accumulate(
                unbroadcast(-grad * self.data / (other.data**2), other.shape)
            )

        return Tensor._make(data, (self, other), backward, "div")

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return self._coerce(other) / self

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            self._accumulate(-grad)

        return Tensor._make(-self.data, (self,), backward, "neg")

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")
        data = self.data**exponent

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return Tensor._make(data, (self,), backward, "pow")

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        data = self.data @ other.data

        def backward(grad: np.ndarray) -> None:
            a, b = self.data, other.data
            if a.ndim == 1 and b.ndim == 1:  # inner product -> scalar
                self._accumulate(grad * b)
                other._accumulate(grad * a)
                return
            if a.ndim == 1:  # (k,) @ (..., k, n) -> (..., n)
                ga = (grad[..., None, :] * b).sum(axis=-1)
                self._accumulate(unbroadcast(ga, a.shape))
                gb = a[:, None] * grad[..., None, :]
                other._accumulate(unbroadcast(gb, b.shape))
                return
            if b.ndim == 1:  # (..., m, k) @ (k,) -> (..., m)
                ga = grad[..., :, None] * b
                self._accumulate(unbroadcast(ga, a.shape))
                gb = (grad[..., :, None] * a).sum(axis=tuple(range(grad.ndim - 1)) + (grad.ndim - 1,))
                other._accumulate(unbroadcast(gb, b.shape))
                return
            ga = grad @ np.swapaxes(b, -1, -2)
            gb = np.swapaxes(a, -1, -2) @ grad
            self._accumulate(unbroadcast(ga, a.shape))
            other._accumulate(unbroadcast(gb, b.shape))

        return Tensor._make(data, (self, other), backward, "matmul")

    # Comparison operators return plain boolean arrays (no gradient).
    def __gt__(self, other: ArrayLike) -> np.ndarray:
        return self.data > (other.data if isinstance(other, Tensor) else other)

    def __lt__(self, other: ArrayLike) -> np.ndarray:
        return self.data < (other.data if isinstance(other, Tensor) else other)

    def __ge__(self, other: ArrayLike) -> np.ndarray:
        return self.data >= (other.data if isinstance(other, Tensor) else other)

    def __le__(self, other: ArrayLike) -> np.ndarray:
        return self.data <= (other.data if isinstance(other, Tensor) else other)

    # ------------------------------------------------------------------
    # Shape ops
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.shape
        data = self.data.reshape(shape)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.reshape(original))

        return Tensor._make(data, (self,), backward, "reshape")

    def flatten(self) -> "Tensor":
        return self.reshape(-1)

    def transpose(self, *axes) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        inverse = np.argsort(axes)
        data = self.data.transpose(axes)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.transpose(inverse))

        return Tensor._make(data, (self,), backward, "transpose")

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def swapaxes(self, axis1: int, axis2: int) -> "Tensor":
        axes = list(range(self.ndim))
        axes[axis1], axes[axis2] = axes[axis2], axes[axis1]
        return self.transpose(*axes)

    def __getitem__(self, index) -> "Tensor":
        data = self.data[index]
        original_shape = self.shape
        basic = _is_basic_index(index)

        def backward(grad: np.ndarray) -> None:
            full = np.zeros(original_shape, dtype=self.data.dtype)
            if basic:
                # A basic index reaches each position at most once, so a
                # plain add is what ``np.add.at`` computes, without its
                # per-element dispatch.
                full[index] += grad
            else:
                np.add.at(full, index, grad)
            self._accumulate(full)

        return Tensor._make(data, (self,), backward, "getitem")

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            g = grad
            if axis is not None and not keepdims:
                axes = (axis,) if isinstance(axis, int) else tuple(axis)
                axes = tuple(a % self.ndim for a in axes)
                for a in sorted(axes):
                    g = np.expand_dims(g, a)
            self._accumulate(np.broadcast_to(g, self.shape).copy())

        return Tensor._make(data, (self,), backward, "sum")

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.size
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            count = int(np.prod([self.shape[a % self.ndim] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            g = grad
            d = data
            if axis is not None and not keepdims:
                axes = (axis,) if isinstance(axis, int) else tuple(axis)
                axes = tuple(a % self.ndim for a in axes)
                for a in sorted(axes):
                    g = np.expand_dims(g, a)
                    d = np.expand_dims(d, a)
            mask = (self.data == d).astype(self.data.dtype)
            # Split gradient equally between ties to keep gradcheck happy.
            mask = mask / np.maximum(mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum(), 1.0)
            self._accumulate(mask * g)

        return Tensor._make(data, (self,), backward, "max")

    # ------------------------------------------------------------------
    # Elementwise math
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * data)

        return Tensor._make(data, (self,), backward, "exp")

    def log(self) -> "Tensor":
        data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad / self.data)

        return Tensor._make(data, (self,), backward, "log")

    def sqrt(self) -> "Tensor":
        data = np.sqrt(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * 0.5 / np.maximum(data, 1e-12))

        return Tensor._make(data, (self,), backward, "sqrt")

    def tanh(self) -> "Tensor":
        data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * (1.0 - data**2))

        return Tensor._make(data, (self,), backward, "tanh")

    def abs(self) -> "Tensor":
        data = np.abs(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * np.sign(self.data))

        return Tensor._make(data, (self,), backward, "abs")

    def clip(self, low: float, high: float) -> "Tensor":
        data = np.clip(self.data, low, high)

        def backward(grad: np.ndarray) -> None:
            mask = ((self.data >= low) & (self.data <= high)).astype(self.data.dtype)
            self._accumulate(grad * mask)

        return Tensor._make(data, (self,), backward, "clip")


# ----------------------------------------------------------------------
# Constructors
# ----------------------------------------------------------------------
def tensor(data: ArrayLike, requires_grad: bool = False) -> Tensor:
    """Create a tensor from array-like data."""
    return Tensor(data, requires_grad=requires_grad)


def zeros(*shape, requires_grad: bool = False) -> Tensor:
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    return Tensor(np.zeros(shape, dtype=_DEFAULT_DTYPE), requires_grad=requires_grad)


def ones(*shape, requires_grad: bool = False) -> Tensor:
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    return Tensor(np.ones(shape, dtype=_DEFAULT_DTYPE), requires_grad=requires_grad)


def randn(*shape, rng: Optional[np.random.Generator] = None, requires_grad: bool = False) -> Tensor:
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    rng = rng or np.random.default_rng()
    return Tensor(rng.standard_normal(shape).astype(_DEFAULT_DTYPE), requires_grad=requires_grad)


def concat(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` (differentiable)."""
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            index = [slice(None)] * grad.ndim
            index[axis] = slice(start, stop)
            t._accumulate(grad[tuple(index)])

    return Tensor._make(data, tensors, backward, "concat")


def broadcast_to(t: Tensor, shape: tuple) -> Tensor:
    """Broadcast ``t`` to ``shape`` without copying (differentiable).

    The forward result is a read-only numpy view; the backward pass reduces
    the incoming gradient back to ``t``'s shape via :func:`unbroadcast`.
    Replaces the ``x * ones(shape)`` tiling idiom, which materializes both
    the ones array and the product.
    """
    t = t if isinstance(t, Tensor) else Tensor(t)
    shape = tuple(int(d) for d in shape)
    data = np.broadcast_to(t.data, shape)

    def backward(grad: np.ndarray) -> None:
        t._accumulate(unbroadcast(grad, t.shape))

    return Tensor._make(data, (t,), backward, "broadcast")


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis (differentiable)."""
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> None:
        for i, t in enumerate(tensors):
            t._accumulate(np.take(grad, i, axis=axis))

    return Tensor._make(data, tensors, backward, "stack")
