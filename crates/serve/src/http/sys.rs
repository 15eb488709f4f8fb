//! Tiny vendored epoll/eventfd sys layer: raw Linux syscalls, no libc.
//!
//! The build environment is offline (see `shims/README.md` for the same
//! situation on the crates.io side), so readiness notification is wired
//! straight to the kernel with `asm!`-issued syscalls — exactly the four
//! primitives the event loop needs (`epoll_create1`, `epoll_ctl`,
//! `epoll_pwait`, `eventfd2`) plus `read`/`write`/`close` on the eventfd.
//! Supported on `x86_64` and `aarch64` Linux; everything else serves
//! through the portable threaded front end (see
//! [`event_loop_supported`](crate::event_loop_supported)).
//!
//! This is one of the workspace's audited unsafe islands
//! (`unsafe_code = "deny"` workspace-wide, allowed on the `mod sys` item;
//! the island list is pinned by `tests/lint_policy.rs`, see
//! `docs/static-analysis.md`): the unsafety is confined to issuing
//! syscalls whose arguments are either plain integers or pointers
//! derived from live Rust references.

use std::io;
use std::os::fd::RawFd;

/// Readiness: fd has bytes to read.
pub const EPOLLIN: u32 = 0x001;
/// Readiness: fd accepts writes without blocking.
pub const EPOLLOUT: u32 = 0x004;
/// Error condition (always reported, never needs registering).
pub const EPOLLERR: u32 = 0x008;
/// Hangup (always reported, never needs registering).
pub const EPOLLHUP: u32 = 0x010;
/// Peer shut down its writing half.
pub const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CTL_ADD: usize = 1;
const EPOLL_CTL_DEL: usize = 2;
const EPOLL_CTL_MOD: usize = 3;
const EPOLL_CLOEXEC: usize = 0x80000;
const EFD_NONBLOCK: usize = 0x800;
const EFD_CLOEXEC: usize = 0x80000;
const EAGAIN: i32 = 11;
const EINTR: i32 = 4;

#[cfg(target_arch = "x86_64")]
mod nr {
    pub const READ: usize = 0;
    pub const WRITE: usize = 1;
    pub const CLOSE: usize = 3;
    pub const MMAP: usize = 9;
    pub const MUNMAP: usize = 11;
    pub const MADVISE: usize = 28;
    pub const EPOLL_CTL: usize = 233;
    pub const EPOLL_PWAIT: usize = 281;
    pub const EVENTFD2: usize = 290;
    pub const EPOLL_CREATE1: usize = 291;
}

#[cfg(target_arch = "aarch64")]
mod nr {
    pub const READ: usize = 63;
    pub const WRITE: usize = 64;
    pub const CLOSE: usize = 57;
    pub const MMAP: usize = 222;
    pub const MUNMAP: usize = 215;
    pub const MADVISE: usize = 233;
    pub const EPOLL_CTL: usize = 21;
    pub const EPOLL_PWAIT: usize = 22;
    pub const EVENTFD2: usize = 19;
    pub const EPOLL_CREATE1: usize = 20;
}

/// Issues one raw syscall. Negative returns are `-errno`.
///
/// # Safety
///
/// The caller must pass arguments valid for the specific syscall —
/// every call site in this module passes integers, or pointers/lengths
/// derived from live references that the kernel only accesses for the
/// duration of the call.
#[cfg(target_arch = "x86_64")]
unsafe fn syscall(n: usize, args: [usize; 6]) -> isize {
    let ret: isize;
    // SAFETY: the operand list is the x86_64 Linux syscall ABI (number in
    // rax, args in rdi/rsi/rdx/r10/r8/r9, rcx/r11 clobbered); argument
    // validity is the caller's contract above.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") n as isize => ret,
            in("rdi") args[0],
            in("rsi") args[1],
            in("rdx") args[2],
            in("r10") args[3],
            in("r8") args[4],
            in("r9") args[5],
            out("rcx") _,
            out("r11") _,
            options(nostack),
        );
    }
    ret
}

/// # Safety
///
/// Same caller contract as the `x86_64` twin above.
#[cfg(target_arch = "aarch64")]
unsafe fn syscall(n: usize, args: [usize; 6]) -> isize {
    let ret: isize;
    // SAFETY: the operand list is the aarch64 Linux syscall ABI (number
    // in x8, args in x0..x5, return in x0); argument validity is the
    // caller's contract.
    unsafe {
        std::arch::asm!(
            "svc 0",
            inlateout("x0") args[0] as isize => ret,
            in("x1") args[1],
            in("x2") args[2],
            in("x3") args[3],
            in("x4") args[4],
            in("x5") args[5],
            in("x8") n,
            options(nostack),
        );
    }
    ret
}

fn check(ret: isize) -> io::Result<usize> {
    if ret < 0 {
        Err(io::Error::from_raw_os_error(-ret as i32))
    } else {
        Ok(ret as usize)
    }
}

fn close_fd(fd: RawFd) {
    // Errors on close are unrecoverable and the fd is gone either way.
    // SAFETY: integer arguments only.
    let _ = unsafe { syscall(nr::CLOSE, [fd as usize, 0, 0, 0, 0, 0]) };
}

/// One `struct epoll_event`. The kernel packs it on `x86_64` only.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Debug, Clone, Copy, Default)]
pub struct EpollEvent {
    /// Readiness bit set (`EPOLLIN | …`).
    pub events: u32,
    /// Caller-chosen token identifying the registered fd.
    pub data: u64,
}

/// An epoll instance. Closed on drop.
#[derive(Debug)]
pub struct Epoll {
    fd: RawFd,
}

impl Epoll {
    /// `epoll_create1(EPOLL_CLOEXEC)`.
    ///
    /// # Errors
    ///
    /// The kernel's, as an [`io::Error`].
    pub fn new() -> io::Result<Self> {
        // SAFETY: integer arguments only.
        let fd = check(unsafe { syscall(nr::EPOLL_CREATE1, [EPOLL_CLOEXEC, 0, 0, 0, 0, 0]) })?;
        Ok(Self { fd: fd as RawFd })
    }

    fn ctl(&self, op: usize, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent { events, data: token };
        let ptr = if op == EPOLL_CTL_DEL { 0 } else { std::ptr::addr_of_mut!(ev) as usize };
        // SAFETY: `ptr` is null (DEL) or points at the stack `ev` above,
        // which outlives the call; the kernel reads it only during it.
        check(unsafe { syscall(nr::EPOLL_CTL, [self.fd as usize, op, fd as usize, ptr, 0, 0]) })?;
        Ok(())
    }

    /// Registers `fd` for `events`, delivering `token` on readiness.
    ///
    /// # Errors
    ///
    /// The kernel's, as an [`io::Error`].
    pub fn add(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, events, token)
    }

    /// Changes the registered interest set of `fd`.
    ///
    /// # Errors
    ///
    /// The kernel's, as an [`io::Error`].
    pub fn modify(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, events, token)
    }

    /// Deregisters `fd`.
    ///
    /// # Errors
    ///
    /// The kernel's, as an [`io::Error`].
    pub fn remove(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Blocks up to `timeout_ms` (`-1` = forever) for readiness, filling
    /// `events` and returning how many entries are valid. `EINTR` retries
    /// internally.
    ///
    /// # Errors
    ///
    /// The kernel's, as an [`io::Error`].
    pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        loop {
            // SAFETY: the event buffer pointer/length come from the live
            // `events` slice, which the kernel writes only during the
            // call; the sigmask argument is null (integer 0).
            let ret = unsafe {
                syscall(
                    nr::EPOLL_PWAIT,
                    [
                        self.fd as usize,
                        events.as_mut_ptr() as usize,
                        events.len(),
                        timeout_ms as usize,
                        0, // null sigmask: plain epoll_wait semantics
                        0,
                    ],
                )
            };
            match check(ret) {
                Ok(n) => return Ok(n),
                Err(e) if e.raw_os_error() == Some(EINTR) => continue,
                Err(e) => return Err(e),
            }
        }
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        close_fd(self.fd);
    }
}

/// A non-blocking eventfd used to wake the event loop from other threads
/// (scheduler completion callbacks, [`Server::stop`](crate::Server::stop)).
/// Closed on drop.
#[derive(Debug)]
pub struct EventFd {
    fd: RawFd,
}

impl EventFd {
    /// `eventfd2(0, EFD_CLOEXEC | EFD_NONBLOCK)`.
    ///
    /// # Errors
    ///
    /// The kernel's, as an [`io::Error`].
    pub fn new() -> io::Result<Self> {
        // SAFETY: integer arguments only.
        let fd = check(unsafe {
            syscall(nr::EVENTFD2, [0, EFD_CLOEXEC | EFD_NONBLOCK, 0, 0, 0, 0])
        })?;
        Ok(Self { fd: fd as RawFd })
    }

    /// The fd to register with [`Epoll::add`].
    pub fn raw_fd(&self) -> RawFd {
        self.fd
    }

    /// Makes the fd readable, waking any epoll waiting on it. Saturation
    /// (`EAGAIN` on an already-huge counter) is fine: the fd is readable,
    /// which is all a wakeup needs.
    pub fn wake(&self) {
        let one: u64 = 1;
        // SAFETY: writes 8 bytes from the live stack `one`; the kernel
        // reads it only during the call.
        let _ = unsafe {
            syscall(
                nr::WRITE,
                [self.fd as usize, std::ptr::addr_of!(one) as usize, 8, 0, 0, 0],
            )
        };
    }

    /// Consumes all pending wakeups so the next [`Epoll::wait`] blocks
    /// again.
    pub fn drain(&self) {
        let mut counter: u64 = 0;
        loop {
            // SAFETY: reads 8 bytes into the live stack `counter`; the
            // kernel writes it only during the call.
            let ret = unsafe {
                syscall(
                    nr::READ,
                    [self.fd as usize, std::ptr::addr_of_mut!(counter) as usize, 8, 0, 0, 0],
                )
            };
            match check(ret) {
                Ok(_) => continue, // another wake may have landed; re-read
                Err(e) if e.raw_os_error() == Some(EAGAIN) => return,
                Err(_) => return,
            }
        }
    }
}

impl Drop for EventFd {
    fn drop(&mut self) {
        close_fd(self.fd);
    }
}

const PROT_READ: usize = 0x1;
const MAP_PRIVATE: usize = 0x02;
const MADV_WILLNEED: usize = 3;

/// A read-only, private memory mapping of a whole file. Unmapped on drop.
///
/// Backs zero-copy snapshot loading: the kernel pages file bytes in on
/// demand and shares clean pages with every other mapping of the same
/// file, so "loading" a model is an `mmap` plus header validation — no
/// bulk read, no heap copy, and repeated loads of one file cost one page
/// cache, not N heaps.
pub struct Mmap {
    addr: usize,
    len: usize,
}

// SAFETY: `Mmap` owns its mapping exclusively until `munmap` in `Drop`,
// and the mapping is not tied to the creating thread, so moving the
// owner (and with it the eventual unmap) to another thread is sound.
unsafe impl Send for Mmap {}
// SAFETY: `&Mmap` allows only reads: `addr`/`len` are never mutated
// after construction (no interior mutability), the pages are PROT_READ
// for the mapping's whole life so `as_bytes`/`as_f32s` views cannot race
// with a write, and `advise_willneed` is an advisory syscall that
// changes no contents. The mapping outlives every `&Mmap`, since `Drop`
// needs `&mut self`.
unsafe impl Sync for Mmap {}

impl std::fmt::Debug for Mmap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mmap").field("len", &self.len).finish()
    }
}

impl Mmap {
    /// `mmap(NULL, len, PROT_READ, MAP_PRIVATE, fd, 0)` over the whole
    /// file behind `file`. Zero-length files cannot be mapped.
    ///
    /// # Errors
    ///
    /// The kernel's, as an [`io::Error`]; [`io::ErrorKind::InvalidInput`]
    /// for an empty file.
    pub fn map_file(file: &std::fs::File) -> io::Result<Self> {
        use std::os::fd::AsRawFd;
        let len = file.metadata()?.len();
        if len == 0 {
            return Err(io::Error::new(io::ErrorKind::InvalidInput, "cannot map an empty file"));
        }
        let len = usize::try_from(len)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "file too large to map"))?;
        // SAFETY: integer arguments only (NULL hint address, validated
        // nonzero length, flags, a borrowed live fd, offset 0).
        let ret = unsafe {
            syscall(
                nr::MMAP,
                [0, len, PROT_READ, MAP_PRIVATE, file.as_raw_fd() as usize, 0],
            )
        };
        let addr = check(ret)?;
        Ok(Self { addr, len })
    }

    /// The mapped bytes. Page-aligned: `mmap` returns page-aligned
    /// addresses, so any file offset aligned to 64 stays 64-aligned in
    /// memory.
    pub fn as_bytes(&self) -> &[u8] {
        // SAFETY: `addr` is a live PROT_READ mapping of exactly `len`
        // bytes, valid until `munmap` in `Drop`, and never written through.
        unsafe { std::slice::from_raw_parts(self.addr as *const u8, self.len) }
    }

    /// The mapping viewed as little-endian `f32`s, or `None` when the
    /// length is not a multiple of 4. (The base address is page-aligned,
    /// so element alignment always holds.)
    pub fn as_f32s(&self) -> Option<&[f32]> {
        if self.len % 4 != 0 {
            return None;
        }
        // SAFETY: same region as `as_bytes`; f32 has no invalid bit
        // patterns, alignment is guaranteed by the page-aligned base, and
        // this build only compiles on little-endian Linux targets so the
        // on-disk LE bytes are the in-memory representation.
        Some(unsafe { std::slice::from_raw_parts(self.addr as *const f32, self.len / 4) })
    }

    /// `madvise(MADV_WILLNEED)`: asks the kernel to start reading the
    /// whole mapping in the background. Purely advisory — failure is
    /// ignored.
    pub fn advise_willneed(&self) {
        // SAFETY: `addr`/`len` describe this object's own live mapping.
        let _ = unsafe { syscall(nr::MADVISE, [self.addr, self.len, MADV_WILLNEED, 0, 0, 0]) };
    }
}

impl Drop for Mmap {
    fn drop(&mut self) {
        // Errors are unrecoverable and the address range must be treated
        // as gone either way.
        // SAFETY: unmaps this object's own mapping exactly once; no view
        // can outlive `self` (the accessors borrow it).
        let _ = unsafe { syscall(nr::MUNMAP, [self.addr, self.len, 0, 0, 0, 0]) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eventfd_wakes_epoll_and_drains() {
        let epoll = Epoll::new().unwrap();
        let wake = EventFd::new().unwrap();
        epoll.add(wake.raw_fd(), EPOLLIN, 7).unwrap();
        let mut events = [EpollEvent::default(); 4];

        // Nothing pending: times out with zero events.
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0);

        wake.wake();
        wake.wake();
        let n = epoll.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        // Copy out: `assert_eq!` would take a reference into the packed
        // struct.
        let (data, bits) = (events[0].data, events[0].events);
        assert_eq!(data, 7);
        assert_ne!(bits & EPOLLIN, 0);

        wake.drain();
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0, "drained fd is quiet");
    }

    #[test]
    fn mmap_views_file_bytes_and_floats() {
        let dir = std::env::temp_dir().join(format!("pecan-mmap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.bin");
        let floats: Vec<f32> = (0..37).map(|i| i as f32 * 0.5 - 3.0).collect();
        let mut bytes = Vec::new();
        for f in &floats {
            bytes.extend_from_slice(&f.to_le_bytes());
        }
        std::fs::write(&path, &bytes).unwrap();
        let map = Mmap::map_file(&std::fs::File::open(&path).unwrap()).unwrap();
        map.advise_willneed();
        assert_eq!(map.as_bytes(), &bytes[..]);
        assert_eq!(map.as_f32s().unwrap(), &floats[..]);

        // Empty files cannot be mapped; odd lengths map but refuse the
        // f32 view.
        let empty = dir.join("e.bin");
        std::fs::write(&empty, b"").unwrap();
        assert!(Mmap::map_file(&std::fs::File::open(&empty).unwrap()).is_err());
        let odd = dir.join("o.bin");
        std::fs::write(&odd, b"abc").unwrap();
        let m = Mmap::map_file(&std::fs::File::open(&odd).unwrap()).unwrap();
        assert!(m.as_f32s().is_none());
        assert_eq!(m.as_bytes(), b"abc");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn modify_and_remove_round_trip() {
        let epoll = Epoll::new().unwrap();
        let wake = EventFd::new().unwrap();
        epoll.add(wake.raw_fd(), 0, 1).unwrap();
        wake.wake();
        let mut events = [EpollEvent::default(); 4];
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0, "no interest, no event");
        epoll.modify(wake.raw_fd(), EPOLLIN, 2).unwrap();
        assert_eq!(epoll.wait(&mut events, 1000).unwrap(), 1);
        let data = events[0].data;
        assert_eq!(data, 2, "token follows the modify");
        epoll.remove(wake.raw_fd()).unwrap();
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0);
        // Double-remove reports the kernel's ENOENT instead of panicking.
        assert!(epoll.remove(wake.raw_fd()).is_err());
    }
}
