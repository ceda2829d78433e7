#!/usr/bin/env python3
"""Sample where a wfbench workload spends its time, with nothing but
Python 3, ptrace and `nm`.

    scripts/profile.py --workload fleet_parallel [--seed 1] [--seconds 10]
                       [--warmup 2] [--rate 500] [--top 25]
                       [--target-dir target/profile] [--no-build]

It builds `wfbench` from `benchmark/` with `-C force-frame-pointers=yes`
into a target directory of its own (default `target/profile`, so the
benchmark's own build is never touched), runs one untraced pass of the
named workload, and after the warm-up samples the process's main thread
`--rate` times a second until the run ends: each sample stops the thread
(PTRACE_INTERRUPT), reads its registers, walks the frame-pointer chain
through /proc/PID/mem and lets it go. In the fleet workloads the main
thread is fleet worker 0, so the profile is one worker's.

It prints four tables: flat shares (the function a sample stopped in),
inclusive shares (every function on the sampled stack, counted once per
sample), inclusive shares by crate, and every sample that stopped in
libc (malloc, free, a stripped memmove) or in Rust's `alloc` crate,
charged to its nearest product frame — the first caller that belongs to
one of the workspace's own crates — so copying, allocating and freeing
show up under the code that asked for them. Where the frame-pointer walk
ends without reaching a product frame — it dies inside the precompiled
`alloc` crate, built without frame pointers, as readily as inside libc —
the caller is recovered by the same stack scan, taking the first return
address into a product crate's code.
Addresses are named from `nm`:
the binary's full symbol table, a shared library's dynamic one. A
shared library address that lies in no exported symbol — libc's malloc
internals (`_int_malloc`, `_int_free`, ...) are static and stripped — is
reported as `[libc.so.6: unexported code]`, not charged to whichever
export happens to precede it. When a sample stops in such code, whose
frame pointer is not trustworthy, the caller is recovered by scanning the
stack for the first return address into the binary.

x86-64 Linux only. Not a gate: a measurement aid for finding which layer
to optimise next (see README, "Performance").
"""

import argparse
import bisect
import ctypes
import os
import platform
import signal
import struct
import subprocess
import sys
import time
from collections import Counter

PTRACE_CONT = 7
PTRACE_GETREGS = 12
PTRACE_DETACH = 17
PTRACE_SEIZE = 0x4206
PTRACE_INTERRUPT = 0x4207
PTRACE_EVENT_STOP = 128
WALL = 0x40000000
# Offsets into `struct user_regs_struct` (27 unsigned longs on x86-64).
REG_RBP, REG_RIP, REG_RSP = 4, 16, 19
MAX_FRAMES = 128
SCAN_WORDS = 64

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, help="a workload name from BENCHMARK.json")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0, help="length of the wfbench run")
    p.add_argument("--warmup", type=float, default=2.0, help="seconds before sampling starts")
    p.add_argument("--rate", type=float, default=500.0, help="samples per second")
    p.add_argument("--top", type=int, default=25, help="rows per table")
    p.add_argument("--target-dir", default=os.path.join(ROOT, "target", "profile"))
    p.add_argument("--no-build", action="store_true", help="reuse the last build")
    return p.parse_args()


def build(target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir, CARGO_NET_OFFLINE="true")
    env["RUSTFLAGS"] = (env.get("RUSTFLAGS", "") + " -C force-frame-pointers=yes").strip()
    manifest = os.path.join(ROOT, "benchmark", "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    subprocess.run(cmd, env=env, check=True)
    return os.path.join(target_dir, "release", "wfbench")


class Tracer:
    """PTRACE_SEIZE on one thread, stop/read/continue per sample."""

    def __init__(self, tid):
        self.libc = ctypes.CDLL(None, use_errno=True)
        self.libc.ptrace.argtypes = [ctypes.c_long, ctypes.c_int, ctypes.c_void_p, ctypes.c_void_p]
        self.libc.ptrace.restype = ctypes.c_long
        self.tid = tid
        self.regs = (ctypes.c_ulong * 27)()
        self.call(PTRACE_SEIZE, None)

    def call(self, request, data):
        if self.libc.ptrace(request, self.tid, None, data) == -1:
            err = ctypes.get_errno()
            raise OSError(err, f"ptrace({request:#x}): {os.strerror(err)}")

    def stop(self):
        """Interrupt the thread; `False` once it has exited."""
        try:
            self.call(PTRACE_INTERRUPT, None)
        except OSError:
            return False
        while True:
            try:
                _, status = os.waitpid(self.tid, WALL)
            except ChildProcessError:
                return False
            if os.WIFEXITED(status) or os.WIFSIGNALED(status):
                return False
            sig = os.WSTOPSIG(status)
            if sig == signal.SIGTRAP and status >> 16 == PTRACE_EVENT_STOP:
                return True
            # A signal arrived first: deliver it and keep waiting for the
            # interrupt's stop.
            self.libc.ptrace(PTRACE_CONT, self.tid, None, ctypes.c_void_p(sig))

    def registers(self):
        self.call(PTRACE_GETREGS, ctypes.byref(self.regs))
        return self.regs[REG_RIP], self.regs[REG_RBP], self.regs[REG_RSP]

    def resume(self):
        self.libc.ptrace(PTRACE_CONT, self.tid, None, None)

    def detach(self):
        self.libc.ptrace(PTRACE_DETACH, self.tid, None, None)


def elf_loads(path):
    """`(p_offset, p_vaddr, p_filesz)` of each PT_LOAD segment of an ELF64 file."""
    with open(path, "rb") as f:
        head = f.read(64)
        if head[:4] != b"\x7fELF" or head[4] != 2:
            return []
        phoff, = struct.unpack_from("<Q", head, 32)
        phentsize, phnum = struct.unpack_from("<HH", head, 54)
        f.seek(phoff)
        table = f.read(phentsize * phnum)
    loads = []
    for i in range(phnum):
        p_type, _, p_offset, p_vaddr, _, p_filesz = struct.unpack_from("<IIQQQQ", table, i * phentsize)
        if p_type == 1:
            loads.append((p_offset, p_vaddr, p_filesz))
    return loads


def nm_symbols(path, dynamic):
    """Sorted `(address, size, name)` of the defined functions in `path`."""
    cmd = ["nm", "--defined-only", "-S", "-C"] + (["-D"] if dynamic else []) + [path]
    out = subprocess.run(cmd, capture_output=True, text=True).stdout
    syms = []
    for line in out.splitlines():
        parts = line.split(" ", 3)
        if len(parts) == 4 and parts[2] in "TtWw":
            name = parts[3].split("@")[0]
            syms.append((int(parts[0], 16), int(parts[1], 16), name))
    syms.sort()
    return syms


class Symbolizer:
    """Names code addresses of a running process from its maps and `nm`."""

    def __init__(self, pid, exe):
        self.exe = os.path.realpath(exe)
        self.maps = []  # (start, end, file offset, path), executable mappings only
        with open(f"/proc/{pid}/maps") as f:
            for line in f:
                fields = line.split()
                if len(fields) >= 6 and "x" in fields[1] and fields[5].startswith("/"):
                    start, end = (int(x, 16) for x in fields[0].split("-"))
                    self.maps.append((start, end, int(fields[2], 16), fields[5]))
        self.maps.sort()
        self.starts = [m[0] for m in self.maps]
        self.files = {}
        self.cache = {}

    def mapping(self, addr):
        i = bisect.bisect_right(self.starts, addr) - 1
        if i >= 0 and addr < self.maps[i][1]:
            return self.maps[i]
        return None

    def in_exe(self, addr):
        m = self.mapping(addr)
        return m is not None and os.path.realpath(m[3]) == self.exe

    def file_info(self, path):
        if path not in self.files:
            syms = nm_symbols(path, dynamic=os.path.realpath(path) != self.exe)
            self.files[path] = (elf_loads(path), syms, [s[0] for s in syms])
        return self.files[path]

    def name(self, addr):
        if addr in self.cache:
            return self.cache[addr]
        m = self.mapping(addr)
        if m is None:
            label = "[unmapped]"
        else:
            start, _, offset, path = m
            loads, syms, addrs = self.file_info(path)
            fileoff = addr - start + offset
            vaddr = next(
                (v + fileoff - o for o, v, n in loads if o <= fileoff < o + n), fileoff
            )
            i = bisect.bisect_right(addrs, vaddr) - 1
            base = os.path.basename(path)
            if i >= 0 and vaddr < syms[i][0] + max(syms[i][1], 1):
                label = syms[i][2]
                if os.path.realpath(path) != self.exe:
                    label = f"{base}!{label}"
            else:
                label = f"[{base}: unexported code]"
        self.cache[addr] = label
        return label


def read_words(mem, addr, n):
    try:
        mem.seek(addr)
        data = mem.read(8 * n)
    except (OSError, ValueError, OverflowError):
        return []
    return list(struct.unpack(f"<{len(data) // 8}Q", data[: len(data) // 8 * 8]))


def scanned_product_frame(sym, words, product):
    """The first of `words` (read up the stack from the sampled `rsp`)
    that returns into a product crate's code, named; `None` if none does."""
    for word in words:
        if sym.in_exe(word):
            name = sym.name(word - 1)
            if crate_of(name) in product:
                return name
    return None


def stack_of(mem, sym, rip, rbp, rsp):
    """Return addresses from the leaf outwards, by the frame-pointer chain."""
    frames = [rip]
    if not sym.in_exe(rip):
        # Library code keeps no frame pointer: its caller is the first word
        # up the stack that returns into the binary; the chain resumes from
        # `rbp` only if it still points into the stack above that word.
        for k, word in enumerate(read_words(mem, rsp, SCAN_WORDS)):
            if sym.in_exe(word):
                frames.append(word)
                if rbp < rsp + 8 * k:
                    return frames
                break
    while rbp and len(frames) < MAX_FRAMES:
        words = read_words(mem, rbp, 2)
        if len(words) < 2 or sym.mapping(words[1]) is None:
            break
        frames.append(words[1])
        if words[0] <= rbp:
            break
        rbp = words[0]
    return frames


def crate_of(name):
    """The crate a Rust symbol belongs to (`<A as B>::f` counts as `A`'s)."""
    name = name.lstrip("<&*").replace("mut ", "").replace("dyn ", "")
    head = name.split("::", 1)[0]
    return head if head and "[" not in head else name


def product_crates():
    """The workspace's own crates, by the name their symbols carry (every
    `name = "..."` in a `crates/*/Cargo.toml`, dashes as underscores)."""
    crates, names = os.path.join(ROOT, "crates"), set()
    for d in os.listdir(crates):
        manifest = os.path.join(crates, d, "Cargo.toml")
        if os.path.isfile(manifest):
            with open(manifest) as f:
                names.update(line.split('"')[1].replace("-", "_")
                             for line in f if line.startswith("name = \""))
    return names


def in_runtime(name):
    """A frame of libc or of Rust's allocator: a copy, an allocation or a free."""
    return "libc.so" in name or crate_of(name) == "alloc" or name.startswith("__rust")


def table(title, counts, total, top):
    print(f"\n{title}")
    for name, n in counts.most_common(top):
        print(f"  {100.0 * n / total:6.2f}%  {name}")


def main():
    args = parse_args()
    if platform.machine() != "x86_64" or not sys.platform.startswith("linux"):
        sys.exit("profile.py: x86-64 Linux only (it reads x86-64 registers through ptrace)")
    exe = args.target_dir + "/release/wfbench" if args.no_build else build(args.target_dir)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0", "--dir", os.path.join(ROOT, "benchmark")]
    child = subprocess.Popen(cmd, stdout=subprocess.DEVNULL)
    time.sleep(args.warmup)
    if child.poll() is not None:
        sys.exit(f"profile.py: wfbench exited ({child.returncode}) before sampling began")
    tracer = Tracer(child.pid)
    sym = Symbolizer(child.pid, exe)
    flat, inclusive, crates, callers = Counter(), Counter(), Counter(), Counter()
    product = product_crates()
    samples, period = 0, 1.0 / args.rate
    with open(f"/proc/{child.pid}/mem", "rb", buffering=0) as mem:
        while tracer.stop():
            try:
                rip, rbp, rsp = tracer.registers()
                frames = stack_of(mem, sym, rip, rbp, rsp)
                # Read while the thread is stopped; scanned only if the walk
                # finds no product frame.
                scan = read_words(mem, rsp, SCAN_WORDS)
            finally:
                tracer.resume()
            names = [sym.name(a if i == 0 else a - 1) for i, a in enumerate(frames)]
            samples += 1
            flat[names[0]] += 1
            # Unnamed code counts where it was sampled, not as a caller: the
            # process's outermost frames (libc's start-up) are unexported
            # too, and would otherwise top the inclusive tables.
            named = {names[0]} | {n for n in names[1:] if not n.startswith("[")}
            inclusive.update(named)
            crates.update({crate_of(n) for n in named})
            if in_runtime(names[0]):
                caller = next((n for n in names[1:] if crate_of(n) in product), None)
                # A stack the walk lost in code without frame pointers ends
                # early: scan for the caller, and name where it ended if
                # even that finds none.
                caller = caller or scanned_product_frame(sym, scan, product)
                callers[caller or f"[no product frame; stack ends at {names[-1]}]"] += 1
            time.sleep(period)
    tracer.detach()
    child.wait()
    if samples == 0:
        sys.exit("profile.py: no samples taken")
    print(f"{samples} samples of {args.workload} (seed {args.seed}), main thread, {args.rate:g} Hz")
    table("flat (self) share", flat, samples, args.top)
    table("inclusive share", inclusive, samples, args.top)
    table("inclusive share by crate", crates, samples, args.top)
    share = 100.0 * sum(callers.values()) / samples
    title = f"libc and alloc:: samples ({share:.2f}% of all) by nearest product frame"
    table(title, callers, samples, args.top)


if __name__ == "__main__":
    main()
