//! Per-thread CPU-time clock: `clock_gettime(CLOCK_THREAD_CPUTIME_ID)`
//! as a raw syscall, no libc.
//!
//! Span tracing reports wall time *and* CPU time per span so that time a
//! thread spends blocked — queue waits, condvar parks, `epoll_pwait` —
//! shows up as `wall ≫ cpu` instead of being indistinguishable from
//! compute. The build environment is offline, so the clock is wired
//! straight to the kernel with an `asm!`-issued syscall in the same style
//! as `pecan-serve`'s epoll layer. Supported on `x86_64` and `aarch64`
//! Linux; everywhere else [`thread_cpu_ns`] returns 0, which keeps the
//! `wall ≥ cpu` invariant trivially true.

/// Nanoseconds of CPU time consumed by the calling thread, or 0 where
/// the per-thread clock is unavailable (non-Linux, other architectures).
///
/// Monotone per thread. The value is only meaningful as a difference
/// between two readings on the same thread.
pub fn thread_cpu_ns() -> u64 {
    imp::thread_cpu_ns()
}

/// True when [`thread_cpu_ns`] reads a real per-thread CPU clock rather
/// than returning the constant-zero fallback.
pub fn thread_cpu_supported() -> bool {
    cfg!(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64"),
        not(miri)
    ))
}

/// The raw-syscall implementation. This is one of the three confined
/// unsafe islands of the crate (see `tests/lint_policy.rs`): the
/// unsafety is issuing one syscall whose only pointer argument is a
/// stack-resident `timespec` the kernel writes during the call.
// Miri cannot execute inline-asm syscalls; under it the portable
// constant-zero fallback below takes over, keeping the module testable.
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64"),
    not(miri)
))]
#[allow(unsafe_code)]
mod imp {
    /// `CLOCK_THREAD_CPUTIME_ID`: CPU time consumed by this thread only.
    const CLOCK_THREAD_CPUTIME: usize = 3;

    #[cfg(target_arch = "x86_64")]
    const NR_CLOCK_GETTIME: usize = 228;
    #[cfg(target_arch = "aarch64")]
    const NR_CLOCK_GETTIME: usize = 113;

    /// One `struct timespec` as the kernel fills it on 64-bit targets.
    #[repr(C)]
    #[derive(Default)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    /// Raw two-argument Linux syscall.
    ///
    /// # Safety
    ///
    /// `n` must be a syscall number whose two arguments match `a0`/`a1`;
    /// any pointer passed must be valid for the kernel's access pattern
    /// for the duration of the call.
    #[cfg(target_arch = "x86_64")]
    unsafe fn syscall2(n: usize, a0: usize, a1: usize) -> isize {
        let ret: isize;
        // SAFETY: the x86_64 Linux syscall ABI — args in rdi/rsi, number
        // in rax, rcx/r11 clobbered by `syscall` — matches the operand
        // list; the caller guarantees the arguments themselves.
        unsafe {
            std::arch::asm!(
                "syscall",
                inlateout("rax") n as isize => ret,
                in("rdi") a0,
                in("rsi") a1,
                out("rcx") _,
                out("r11") _,
                options(nostack),
            );
        }
        ret
    }

    /// # Safety
    ///
    /// Same caller contract as the x86_64 variant above.
    #[cfg(target_arch = "aarch64")]
    unsafe fn syscall2(n: usize, a0: usize, a1: usize) -> isize {
        let ret: isize;
        // SAFETY: the aarch64 Linux syscall ABI — args in x0/x1, number
        // in x8, return in x0 — matches the operand list; the caller
        // guarantees the arguments themselves.
        unsafe {
            std::arch::asm!(
                "svc 0",
                inlateout("x0") a0 as isize => ret,
                in("x1") a1,
                in("x8") n,
                options(nostack),
            );
        }
        ret
    }

    pub fn thread_cpu_ns() -> u64 {
        let mut ts = Timespec::default();
        // SAFETY: the pointer is to a live stack `timespec` that the
        // kernel writes only for the duration of the call.
        let ret = unsafe {
            syscall2(
                NR_CLOCK_GETTIME,
                CLOCK_THREAD_CPUTIME,
                std::ptr::addr_of_mut!(ts) as usize,
            )
        };
        if ret < 0 {
            return 0;
        }
        (ts.tv_sec as u64).saturating_mul(1_000_000_000).saturating_add(ts.tv_nsec as u64)
    }
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64"),
    not(miri)
)))]
mod imp {
    /// Portable fallback: no per-thread CPU clock without libc, so report
    /// zero. Span CPU deltas then read 0 ≤ wall, never nonsense.
    pub fn thread_cpu_ns() -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_is_monotone_and_advances_under_load() {
        if !thread_cpu_supported() {
            assert_eq!(thread_cpu_ns(), 0);
            return;
        }
        let a = thread_cpu_ns();
        // Burn CPU on this thread; the per-thread clock must advance.
        let mut acc = 0u64;
        for i in 0..2_000_000u64 {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        assert_ne!(acc, 1); // keep the loop observable
        let b = thread_cpu_ns();
        assert!(b >= a, "CPU clock went backwards: {a} -> {b}");
        assert!(b > a, "CPU clock did not advance across a compute loop");
    }

    #[test]
    fn sleeping_consumes_little_cpu_time() {
        if !thread_cpu_supported() {
            return;
        }
        let a = thread_cpu_ns();
        std::thread::sleep(std::time::Duration::from_millis(30));
        let cpu = thread_cpu_ns() - a;
        // The whole point of the clock: blocked time is not CPU time.
        assert!(cpu < 25_000_000, "sleep consumed {cpu} ns of CPU");
    }
}
