"""Minimal module system: parameter registration, train/eval mode, state dicts."""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.autograd import Tensor
from repro.perf.cache import bump_params_version


class Parameter(Tensor):
    """A tensor that is registered as trainable when assigned to a module."""

    def __init__(self, data):
        super().__init__(data, requires_grad=True)


class Module:
    """Base class for all layers and models.

    Assigning a :class:`Parameter`, a :class:`Module`, or a list of modules to
    an attribute registers it, so ``parameters()`` and ``state_dict()`` see the
    whole tree.  ``training`` toggles dropout behaviour via ``train()`` /
    ``eval()``.
    """

    def __init__(self):
        object.__setattr__(self, "_parameters", {})
        object.__setattr__(self, "_modules", {})
        object.__setattr__(self, "training", True)

    def __setattr__(self, name: str, value) -> None:
        params = self.__dict__.get("_parameters")
        modules = self.__dict__.get("_modules")
        if params is None or modules is None:
            raise RuntimeError("call Module.__init__() before assigning attributes")
        params.pop(name, None)
        modules.pop(name, None)
        if isinstance(value, Parameter):
            params[name] = value
        elif isinstance(value, Module):
            modules[name] = value
        elif (not name.startswith("_") and isinstance(value, (list, tuple))
              and value and all(isinstance(v, Module) for v in value)):
            modules[name] = ModuleList(value)
            object.__setattr__(self, name, modules[name])
            return
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------
    def parameters(self) -> List[Parameter]:
        """Return all parameters in the module tree (depth-first, stable order)."""
        seen: set = set()
        out: List[Parameter] = []
        for _, p in self.named_parameters():
            if id(p) not in seen:
                seen.add(id(p))
                out.append(p)
        return out

    def named_parameters(self, prefix: str = "") -> List[tuple]:
        """``(dotted name, parameter)`` in preorder: a module's own
        parameters, then each sub-module's, in registration order."""
        out: List[tuple] = []
        stack = [(prefix, self)]
        while stack:
            prefix, module = stack.pop()
            for name, p in module._parameters.items():
                out.append((prefix + name, p))
            for name, m in reversed(module._modules.items()):
                stack.append((f"{prefix}{name}.", m))
        return out

    def modules(self) -> List["Module"]:
        """This module and every sub-module, in preorder."""
        out: List[Module] = []
        stack: List[Module] = [self]
        while stack:
            module = stack.pop()
            out.append(module)
            stack.extend(reversed(module._modules.values()))
        return out

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    # ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        for m in self.modules():
            object.__setattr__(m, "training", mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.grad = None

    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(f"state dict mismatch: missing={sorted(missing)}, unexpected={sorted(unexpected)}")
        for name, p in own.items():
            if p.data.shape != state[name].shape:
                raise ValueError(f"shape mismatch for {name}: {p.data.shape} vs {state[name].shape}")
            p.data = state[name].astype(p.data.dtype).copy()
        bump_params_version()

    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class ModuleList(Module):
    """A list of sub-modules registered under integer names."""

    def __init__(self, modules):
        super().__init__()
        self._list = list(modules)
        for i, m in enumerate(self._list):
            self._modules[str(i)] = m

    def __iter__(self):
        return iter(self._list)

    def __len__(self):
        return len(self._list)

    def __getitem__(self, i):
        return self._list[i]

    def forward(self, *args, **kwargs):  # pragma: no cover
        raise RuntimeError("ModuleList is a container, not callable")


class Sequential(Module):
    """Apply modules in order."""

    def __init__(self, *modules: Module):
        super().__init__()
        self.layers = list(modules)

    def forward(self, x):
        for layer in self.layers:
            x = layer(x)
        return x
