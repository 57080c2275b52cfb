"""Out-of-program tracing of the vacmirror layers.

``Tracer.install`` wraps every public function (and public method of a
public class) defined in the seven layer modules, and rebinds each wrapper
in every ``vacmirror`` namespace that holds the original: ``from
.susceptibility import gamma`` leaves copies in ``cli``, ``dispersion``,
``analysis`` and the package itself, and all of them must be traced.
``restore`` puts every original back.

Each call of a wrapped function is one span (name, start, end, parent, op);
spans are kept in flat arrays and summarized, or written, at the end.  A
span's self time is its duration minus the durations of its child spans.
The hot leaves (scattering amplitudes, the alpha/beta products and the
quadrature integrand, about 10^6 calls per crosscheck) get counters, not
spans; their time lands in the self time of their caller.
"""

import functools
import inspect
import os
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

MODULES = ("scattering", "susceptibility", "numerics", "dispersion", "analysis",
           "dynamics", "cli")
HOT = {"scattering.reflectivity", "scattering.transmissivity",
       "susceptibility.alpha", "susceptibility.beta"}


def _first_arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    def __init__(self):
        self.names = []
        self._name_id = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self.op = array("q")
        self._stack = []
        self.current_op = -1
        self.counters = defaultdict(float)
        self._bindings = []  # (namespace, attribute, original)
        # argument rewrites (pre) and result counters (post) for some layers
        self._pre_hooks = {
            "numerics.adaptive_gauss_legendre": self._wrap_integrand,
            "numerics.secant_root": self._wrap_secant,
        }
        self._post_hooks = {
            "analysis.laplace_impedance": self._count_impedance_points,
            "dispersion.build_time_kernel": self._count_nfft,
        }
        for name in ("dynamics.simulate_with_memory", "dynamics.simulate_perfect_mirror"):
            self._post_hooks[name] = self._count_steps(name)
        for name in ("dynamics.export_run_csv", "dynamics.export_energy_csv"):
            self._post_hooks[name] = self._count_bytes(name)

    # -- spans ---------------------------------------------------------
    def _open(self, name_id):
        idx = len(self.start)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name.append(name_id)
        self.op.append(self.current_op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _intern(self, qualname):
        if qualname not in self._name_id:
            self._name_id[qualname] = len(self.names)
            self.names.append(qualname)
        return self._name_id[qualname]

    # -- wrappers ------------------------------------------------------
    def _counting(self, fn, calls, points=None, points_arg=0):
        """``fn`` counting its calls and, if asked, the size of one argument."""
        counters = self.counters

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counters[calls] += 1
            if points is not None:
                counters[points] += np.size(args[points_arg])
            return fn(*args, **kwargs)

        return counted

    def _spanned(self, qualname, fn):
        name_id = self._intern(qualname)
        pre = self._pre_hooks.get(qualname)
        post = self._post_hooks.get(qualname)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if pre is not None:
                args = pre(args)
            idx = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if post is not None:
                post(args, kwargs, result)
            return result

        wrapper.__traced__ = True
        return wrapper

    def _wrap_integrand(self, args):
        f = self._counting(args[0], "numerics.adaptive_gauss_legendre.integrand_calls",
                           "numerics.adaptive_gauss_legendre.nodes")
        return (f,) + args[1:]

    def _wrap_secant(self, args):
        return (self._counting(args[0], "numerics.secant_root.f_evals"),) + args[1:]

    def _count_impedance_points(self, args, kwargs, result):
        self.counters["analysis.laplace_impedance.points"] += np.size(
            _first_arg(args, kwargs, 2, "p"))

    def _count_steps(self, qualname):
        def post(args, kwargs, traj):
            self.counters[qualname + ".steps"] += len(traj.times) - 1
        return post

    def _count_nfft(self, args, kwargs, kernel):
        self.counters["dispersion.build_time_kernel.n_fft"] += kernel.n_fft

    def _count_bytes(self, qualname):
        def post(args, kwargs, result):
            path = _first_arg(args, kwargs, 0, "path")
            self.counters[qualname + ".bytes"] += os.path.getsize(path)
        return post

    # -- install / restore ---------------------------------------------
    def _targets(self, package):
        """(qualname, owner, attribute, function) for every public callable."""
        for mod_name in MODULES:
            # sys.modules, not getattr: the package re-exports a function
            # named ``susceptibility`` that shadows the module attribute
            module = sys.modules[f"{package.__name__}.{mod_name}"]
            for attr, obj in sorted(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    yield f"{mod_name}.{attr}", module, attr, obj
                elif inspect.isclass(obj):
                    for meth, fn in sorted(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            yield f"{mod_name}.{attr}.{meth}", obj, meth, fn

    def install(self, package):
        if self._bindings:
            raise RuntimeError("tracer already installed")
        namespaces = _namespaces(package)
        for qualname, owner, attr, fn in list(self._targets(package)):
            if qualname in HOT:  # (mirror, w): count the frequencies
                wrapper = self._counting(fn, qualname + ".calls", qualname + ".points", 1)
                wrapper.__traced__ = True
            else:
                wrapper = self._spanned(qualname, fn)
            self._bindings.append((owner, attr, fn))
            setattr(owner, attr, wrapper)
            if inspect.isclass(owner):
                continue
            for ns in namespaces:
                for name, value in list(vars(ns).items()):
                    if value is fn and not (ns is owner and name == attr):
                        self._bindings.append((ns, name, fn))
                        setattr(ns, name, wrapper)
                    elif isinstance(value, dict):  # dispatch tables, cli._COMMANDS
                        for key, entry in value.items():
                            if entry is fn:
                                self._bindings.append((value, key, fn))
                                value[key] = wrapper

    def restore(self):
        for owner, attr, fn in reversed(self._bindings):
            if isinstance(owner, dict):
                owner[attr] = fn
            else:
                setattr(owner, attr, fn)
        self._bindings = []

    # -- summary -------------------------------------------------------
    def arrays(self):
        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        name = np.frombuffer(self.name, dtype=np.int64)
        op = np.frombuffer(self.op, dtype=np.int64)
        return start, end, parent, name, op

    def summary(self):
        """Per qualname: calls, total_s and self_s, plus the raw counters."""
        start, end, parent, name, _ = self.arrays()
        dur = end - start
        child = np.zeros(dur.size)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_t = dur - child
        n = len(self.names)
        calls = np.bincount(name, minlength=n)
        total = np.bincount(name, weights=dur, minlength=n)
        selft = np.bincount(name, weights=self_t, minlength=n)
        stats = {}
        for i, qualname in enumerate(self.names):
            stats[qualname + ".calls"] = int(calls[i])
            stats[qualname + ".total_s"] = float(total[i])
            stats[qualname + ".self_s"] = float(selft[i])
        for key, value in self.counters.items():
            stats[key] = float(value)
        return stats

    def save(self, path):
        start, end, parent, name, op = self.arrays()
        np.savez_compressed(path, start=start, end=end, parent=parent, name=name,
                            op=op, names=np.array(self.names))


def _namespaces(package):
    return [m for n, m in sorted(sys.modules.items())
            if n == package.__name__ or n.startswith(package.__name__ + ".")]


def traced_bindings(package):
    """Every (namespace or class, attribute) that still holds a wrapper."""
    found = []
    for ns in _namespaces(package):
        for name, value in vars(ns).items():
            if getattr(value, "__traced__", False):
                found.append((ns.__name__, name))
            if isinstance(value, dict):
                found += [(f"{ns.__name__}.{name}", key) for key, entry in value.items()
                          if getattr(entry, "__traced__", False)]
            if inspect.isclass(value) and value.__module__ == ns.__name__:
                found += [(f"{ns.__name__}.{name}", meth)
                          for meth, fn in vars(value).items()
                          if getattr(fn, "__traced__", False)]
    return found


def all_restored(package):
    return not traced_bindings(package)
