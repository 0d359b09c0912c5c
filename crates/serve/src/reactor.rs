//! The event-driven readiness loop that parks idle keep-alive sockets.
//!
//! PR 4's worker pool still dedicated one worker to one connection for the
//! connection's whole keep-alive lifetime, so a few thousand idle (or
//! deliberately slow) persistent clients exhausted the pool and starved live
//! traffic.  This module turns worker occupancy into *per in-flight request*:
//! between requests a connection lives here, registered with the kernel's
//! readiness facility, and only when its socket becomes readable is it handed
//! (back) to the bounded worker queue.  Ten thousand idle clients now cost
//! ten thousand parked sockets and **zero** worker threads.
//!
//! Matching the crate's zero-dependency HTTP stack, the loop is hand-rolled
//! on raw syscalls declared via `extern "C"` (the same trick `signal.rs`
//! uses): `epoll` on Linux, `kqueue` on macOS/BSD.  No libc crate, no mio.
//!
//! Design notes:
//!
//! * **Level-triggered readiness over blocking sockets.**  Readiness and
//!   blocking mode are independent; the sockets stay blocking so the HTTP
//!   layer's timeout machinery is untouched.  Level-triggering also closes
//!   the park race: if bytes land between "worker saw an empty buffer" and
//!   "reactor registered the fd", the next wait still reports it readable.
//! * **Idle deadlines live in a timer wheel,** not in per-worker 100 ms poll
//!   slices: the loop sleeps until the next armed deadline (or forever when
//!   nothing is parked), so an idle parked connection generates **no
//!   wakeups** between timer ticks — the regression test in
//!   `tests/runtime_keepalive.rs` holds the loop to that.
//! * **A self-wake pipe** is registered alongside the sockets: workers and
//!   the acceptor push new parkees into an inbox and write one byte; drain
//!   pokes the same pipe.  The loop therefore never needs a polling slice to
//!   notice work or shutdown.
//! * **The reactor never blocks on a peer.**  Dispatch pushes into the
//!   bounded worker queue; when the queue is full the connection is shed
//!   with the same bounded-write `503 Retry-After` path the acceptor used
//!   to apply, and expired idle connections are simply dropped (exactly the
//!   old `AwaitOutcome::IdleTimeout` behaviour).
//!
//! Shutdown keeps PR 4's drain contract: the acceptor exits first, then
//! `Reactor::drain_and_join` closes every parked socket and joins the
//! loop, then the queue closes and every worker is joined.

use crate::runtime::{shed_conn, Conn, Queue, RuntimeMetrics};
use std::collections::HashMap;
use std::io;
use std::os::unix::io::RawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Raw syscall surface for Linux: `epoll` plus a non-blocking pipe.  The
/// constants are the kernel ABI (stable since 2.6) — the values `libc`
/// would otherwise provide.
#[cfg(target_os = "linux")]
mod sys {
    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_DEL: i32 = 2;
    pub const EPOLLIN: u32 = 0x1;
    pub const EPOLLERR: u32 = 0x8;
    pub const EPOLLHUP: u32 = 0x10;
    pub const EPOLLRDHUP: u32 = 0x2000;
    pub const EPOLL_CLOEXEC: i32 = 0o2000000;
    pub const O_NONBLOCK: i32 = 0o4000;
    pub const O_CLOEXEC: i32 = 0o2000000;

    /// `struct epoll_event`; packed on x86 (the kernel ABI there), naturally
    /// aligned everywhere else.
    #[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
    #[repr(C, packed)]
    #[derive(Clone, Copy)]
    pub struct Event {
        pub events: u32,
        pub data: u64,
    }

    #[cfg(not(any(target_arch = "x86_64", target_arch = "x86")))]
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct Event {
        pub events: u32,
        pub data: u64,
    }

    extern "C" {
        pub fn epoll_create1(flags: i32) -> i32;
        pub fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut Event) -> i32;
        pub fn epoll_wait(epfd: i32, events: *mut Event, maxevents: i32, timeout_ms: i32) -> i32;
        pub fn pipe2(fds: *mut i32, flags: i32) -> i32;
        pub fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        pub fn write(fd: i32, buf: *const u8, count: usize) -> isize;
        pub fn close(fd: i32) -> i32;
    }
}

/// Raw syscall surface for the kqueue family (macOS layout; the BSDs differ
/// only in padding fields this module never reads).
#[cfg(not(target_os = "linux"))]
mod sys {
    pub const EVFILT_READ: i16 = -1;
    pub const EV_ADD: u16 = 0x1;
    pub const EV_DELETE: u16 = 0x2;
    pub const EV_EOF: u16 = 0x8000;
    pub const F_SETFL: i32 = 4;
    pub const F_SETFD: i32 = 2;
    pub const FD_CLOEXEC: i32 = 1;
    pub const O_NONBLOCK: i32 = 0x4;

    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct Kevent {
        pub ident: usize,
        pub filter: i16,
        pub flags: u16,
        pub fflags: u32,
        pub data: isize,
        pub udata: usize,
    }

    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct Timespec {
        pub tv_sec: i64,
        pub tv_nsec: i64,
    }

    extern "C" {
        pub fn kqueue() -> i32;
        pub fn kevent(
            kq: i32,
            changelist: *const Kevent,
            nchanges: i32,
            eventlist: *mut Kevent,
            nevents: i32,
            timeout: *const Timespec,
        ) -> i32;
        pub fn pipe(fds: *mut i32) -> i32;
        pub fn fcntl(fd: i32, cmd: i32, ...) -> i32;
        pub fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        pub fn write(fd: i32, buf: *const u8, count: usize) -> isize;
        pub fn close(fd: i32) -> i32;
    }
}

/// An owned raw file descriptor, closed on drop.
struct OwnedFd(RawFd);

impl Drop for OwnedFd {
    fn drop(&mut self) {
        unsafe {
            sys::close(self.0);
        }
    }
}

/// One readiness report from the poller.
struct Ready {
    token: u64,
    /// Bytes (or an EOF) are waiting: dispatch to a worker, which observes
    /// the actual data-vs-EOF distinction through its normal reads.
    readable: bool,
    /// The peer hung up (or the socket errored).  Dispatch still happens —
    /// buffered bytes before a FIN are a final pipelined request — but an
    /// overflowing queue drops these silently instead of writing a `503` to
    /// a peer that is no longer listening (a mass disconnect is not load).
    hup: bool,
}

/// The kernel readiness facility behind one fd: epoll or kqueue.
struct Poller {
    fd: OwnedFd,
}

#[cfg(target_os = "linux")]
impl Poller {
    fn new() -> io::Result<Poller> {
        let fd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::other("epoll_create1 failed"));
        }
        Ok(Poller { fd: OwnedFd(fd) })
    }

    fn add(&self, fd: RawFd, token: u64) -> io::Result<()> {
        let mut event = sys::Event {
            events: sys::EPOLLIN | sys::EPOLLRDHUP,
            data: token,
        };
        let rc = unsafe { sys::epoll_ctl(self.fd.0, sys::EPOLL_CTL_ADD, fd, &mut event) };
        if rc < 0 {
            return Err(io::Error::other("epoll_ctl(ADD) failed"));
        }
        Ok(())
    }

    fn del(&self, fd: RawFd) {
        // The event argument is ignored for DEL but must be non-null on
        // pre-2.6.9 kernels; pass a dummy either way.
        let mut event = sys::Event { events: 0, data: 0 };
        unsafe {
            sys::epoll_ctl(self.fd.0, sys::EPOLL_CTL_DEL, fd, &mut event);
        }
    }

    /// Waits for readiness; `None` blocks until an event (the wake pipe
    /// guarantees liveness).  An interrupted wait reports zero events.
    fn wait(&self, out: &mut Vec<Ready>, timeout: Option<Duration>) {
        out.clear();
        let timeout_ms: i32 = match timeout {
            None => -1,
            // Round up: truncating a 0.4 ms remainder to zero would spin.
            Some(d) => d.as_nanos().div_ceil(1_000_000).min(i32::MAX as u128) as i32,
        };
        let mut buf = [sys::Event { events: 0, data: 0 }; 128];
        let n =
            unsafe { sys::epoll_wait(self.fd.0, buf.as_mut_ptr(), buf.len() as i32, timeout_ms) };
        for event in buf.iter().take(n.max(0) as usize) {
            let ev = *event;
            let bits = ev.events;
            out.push(Ready {
                token: ev.data,
                readable: bits & sys::EPOLLIN != 0,
                hup: bits & (sys::EPOLLRDHUP | sys::EPOLLHUP | sys::EPOLLERR) != 0,
            });
        }
    }
}

#[cfg(not(target_os = "linux"))]
impl Poller {
    fn new() -> io::Result<Poller> {
        let fd = unsafe { sys::kqueue() };
        if fd < 0 {
            return Err(io::Error::other("kqueue failed"));
        }
        unsafe {
            sys::fcntl(fd, sys::F_SETFD, sys::FD_CLOEXEC);
        }
        Ok(Poller { fd: OwnedFd(fd) })
    }

    fn add(&self, fd: RawFd, token: u64) -> io::Result<()> {
        let change = sys::Kevent {
            ident: fd as usize,
            filter: sys::EVFILT_READ,
            flags: sys::EV_ADD,
            fflags: 0,
            data: 0,
            udata: token as usize,
        };
        let rc = unsafe {
            sys::kevent(
                self.fd.0,
                &change,
                1,
                std::ptr::null_mut(),
                0,
                std::ptr::null(),
            )
        };
        if rc < 0 {
            return Err(io::Error::other("kevent(EV_ADD) failed"));
        }
        Ok(())
    }

    fn del(&self, fd: RawFd) {
        let change = sys::Kevent {
            ident: fd as usize,
            filter: sys::EVFILT_READ,
            flags: sys::EV_DELETE,
            fflags: 0,
            data: 0,
            udata: 0,
        };
        unsafe {
            sys::kevent(
                self.fd.0,
                &change,
                1,
                std::ptr::null_mut(),
                0,
                std::ptr::null(),
            );
        }
    }

    fn wait(&self, out: &mut Vec<Ready>, timeout: Option<Duration>) {
        out.clear();
        let ts;
        let ts_ptr = match timeout {
            None => std::ptr::null(),
            Some(d) => {
                ts = sys::Timespec {
                    tv_sec: d.as_secs() as i64,
                    tv_nsec: d.subsec_nanos() as i64,
                };
                &ts as *const sys::Timespec
            }
        };
        let mut buf = [sys::Kevent {
            ident: 0,
            filter: 0,
            flags: 0,
            fflags: 0,
            data: 0,
            udata: 0,
        }; 128];
        let n = unsafe {
            sys::kevent(
                self.fd.0,
                std::ptr::null(),
                0,
                buf.as_mut_ptr(),
                buf.len() as i32,
                ts_ptr,
            )
        };
        for event in buf.iter().take(n.max(0) as usize) {
            // A read filter fires for data *or* EOF; either way the socket
            // needs a worker (EV_EOF with pending data is a final pipelined
            // request).  Treat both as readable — the worker's read tells
            // them apart, matching the epoll EPOLLIN|EPOLLRDHUP behaviour.
            out.push(Ready {
                token: event.udata as u64,
                readable: event.data > 0 || event.flags & sys::EV_EOF == 0,
                hup: event.flags & sys::EV_EOF != 0,
            });
        }
    }
}

/// The self-wake pipe: both ends non-blocking, write end poked by producers.
struct WakePipe {
    read_fd: OwnedFd,
    write_fd: OwnedFd,
}

impl WakePipe {
    #[cfg(target_os = "linux")]
    fn new() -> io::Result<WakePipe> {
        let mut fds = [0i32; 2];
        let rc = unsafe { sys::pipe2(fds.as_mut_ptr(), sys::O_NONBLOCK | sys::O_CLOEXEC) };
        if rc < 0 {
            return Err(io::Error::other("pipe2 failed"));
        }
        Ok(WakePipe {
            read_fd: OwnedFd(fds[0]),
            write_fd: OwnedFd(fds[1]),
        })
    }

    #[cfg(not(target_os = "linux"))]
    fn new() -> io::Result<WakePipe> {
        let mut fds = [0i32; 2];
        let rc = unsafe { sys::pipe(fds.as_mut_ptr()) };
        if rc < 0 {
            return Err(io::Error::other("pipe failed"));
        }
        for fd in fds {
            unsafe {
                sys::fcntl(fd, sys::F_SETFL, sys::O_NONBLOCK);
                sys::fcntl(fd, sys::F_SETFD, sys::FD_CLOEXEC);
            }
        }
        Ok(WakePipe {
            read_fd: OwnedFd(fds[0]),
            write_fd: OwnedFd(fds[1]),
        })
    }

    /// Pokes the loop.  A full pipe means a wake is already pending — the
    /// failed write is exactly as good as a successful one.
    fn wake(&self) {
        let byte = [1u8];
        unsafe {
            sys::write(self.write_fd.0, byte.as_ptr(), 1);
        }
    }

    /// Swallows every pending wake byte (non-blocking).
    fn drain(&self) {
        let mut sink = [0u8; 64];
        loop {
            let n = unsafe { sys::read(self.read_fd.0, sink.as_mut_ptr(), sink.len()) };
            if n <= 0 {
                break;
            }
        }
    }
}

/// A hashed timer wheel holding idle deadlines, one revolution wide (every
/// deadline is `now + idle_timeout`, so the horizon is fixed).  Slot width
/// is `idle_timeout / 4` clamped to 10–500 ms: coarse enough that ten
/// thousand parked connections arm a handful of ticks, fine enough that an
/// idle connection closes within a quarter of its budget past the deadline.
struct Wheel {
    slots: Vec<Vec<(u64, u64)>>,
    tick: Duration,
    idle_ticks: u64,
    epoch: Instant,
    processed: u64,
    armed: usize,
}

impl Wheel {
    fn new(idle_timeout: Duration) -> Wheel {
        let tick = (idle_timeout / 4)
            .max(Duration::from_millis(10))
            .min(Duration::from_millis(500));
        let idle_ticks = idle_timeout.as_nanos().div_ceil(tick.as_nanos()).max(1) as u64 + 1;
        Wheel {
            slots: vec![Vec::new(); idle_ticks as usize + 2],
            tick,
            idle_ticks,
            epoch: Instant::now(),
            processed: 0,
            armed: 0,
        }
    }

    fn now_tick(&self) -> u64 {
        (self.epoch.elapsed().as_nanos() / self.tick.as_nanos()) as u64
    }

    /// Arms `token` to expire at `expires` (an absolute tick).
    fn insert(&mut self, token: u64, expires: u64) {
        let slot = (expires % self.slots.len() as u64) as usize;
        self.slots[slot].push((token, expires));
        self.armed += 1;
    }

    /// Disarms a token that was dispatched before its deadline.
    fn cancel(&mut self, token: u64, expires: u64) {
        let slot = (expires % self.slots.len() as u64) as usize;
        if let Some(pos) = self.slots[slot].iter().position(|&(t, _)| t == token) {
            self.slots[slot].swap_remove(pos);
            self.armed -= 1;
        }
    }

    /// When the loop must wake next: the earliest armed deadline, or never.
    fn next_deadline(&self) -> Option<Instant> {
        if self.armed == 0 {
            return None;
        }
        let len = self.slots.len() as u64;
        for tick in self.processed + 1..=self.processed + len {
            let slot = (tick % len) as usize;
            if self.slots[slot].iter().any(|&(_, e)| e == tick) {
                return Some(self.epoch + self.tick * tick as u32);
            }
        }
        None
    }

    /// Advances to `now_tick`, returning every expired token.
    fn advance(&mut self, now_tick: u64) -> Vec<u64> {
        let mut expired = Vec::new();
        if now_tick <= self.processed {
            return expired;
        }
        let len = self.slots.len() as u64;
        let span = (now_tick - self.processed).min(len);
        for step in 1..=span {
            let slot = ((self.processed + step) % len) as usize;
            self.slots[slot].retain(|&(token, expires)| {
                if expires <= now_tick {
                    expired.push(token);
                    false
                } else {
                    true
                }
            });
        }
        self.armed -= expired.len();
        self.processed = now_tick;
        expired
    }
}

/// State shared between the loop and its producers (workers, acceptor).
struct Shared {
    inbox: Mutex<Vec<Conn>>,
    draining: AtomicBool,
    wake: WakePipe,
}

/// A cloneable handle for parking connections into the reactor.
#[derive(Clone)]
pub(crate) struct ReactorHandle {
    shared: Arc<Shared>,
}

impl ReactorHandle {
    /// Parks a connection until it becomes readable or its idle deadline
    /// fires.  During drain the connection is simply closed — the reactor
    /// stops taking wards once shutdown begins.
    pub(crate) fn park(&self, conn: Conn) {
        if self.shared.draining.load(Ordering::SeqCst) {
            return; // dropping the Conn closes the socket
        }
        self.shared.inbox.lock().unwrap().push(conn);
        self.shared.wake.wake();
    }
}

/// A parked connection and the tick its idle budget expires on.
struct ParkedConn {
    conn: Conn,
    expires: u64,
}

/// The running readiness loop.
pub(crate) struct Reactor {
    shared: Arc<Shared>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Reactor {
    /// Starts the loop.  Readable parked connections are pushed into
    /// `queue` (bounded by `queue_capacity`; overflow is shed with
    /// `503 Retry-After`); connections idle past `idle_timeout` are closed.
    pub(crate) fn start(
        idle_timeout: Duration,
        queue: Arc<Queue>,
        metrics: Arc<RuntimeMetrics>,
        queue_capacity: usize,
    ) -> io::Result<Reactor> {
        let poller = Poller::new()?;
        let shared = Arc::new(Shared {
            inbox: Mutex::new(Vec::new()),
            draining: AtomicBool::new(false),
            wake: WakePipe::new()?,
        });
        // Token 0 is the wake pipe; connections start at 1.
        poller.add(shared.read_fd(), 0)?;
        let loop_shared = Arc::clone(&shared);
        let thread = std::thread::Builder::new()
            .name("htc-serve-reactor".into())
            .spawn(move || {
                run(
                    poller,
                    loop_shared,
                    idle_timeout,
                    queue,
                    metrics,
                    queue_capacity,
                );
            })?;
        Ok(Reactor {
            shared,
            thread: Some(thread),
        })
    }

    pub(crate) fn handle(&self) -> ReactorHandle {
        ReactorHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Ends the loop: every parked socket is closed (reaped), the thread is
    /// joined.  Parks arriving after this point close their connection
    /// immediately.
    pub(crate) fn drain_and_join(&mut self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        self.shared.wake.wake();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        self.drain_and_join();
    }
}

impl Shared {
    fn read_fd(&self) -> RawFd {
        self.wake.read_fd.0
    }
}

fn run(
    poller: Poller,
    shared: Arc<Shared>,
    idle_timeout: Duration,
    queue: Arc<Queue>,
    metrics: Arc<RuntimeMetrics>,
    queue_capacity: usize,
) {
    let mut wheel = Wheel::new(idle_timeout);
    let mut parked: HashMap<u64, ParkedConn> = HashMap::new();
    let mut next_token: u64 = 1;
    let mut events: Vec<Ready> = Vec::with_capacity(128);
    loop {
        let timeout = wheel
            .next_deadline()
            .map(|deadline| deadline.saturating_duration_since(Instant::now()));
        poller.wait(&mut events, timeout);
        metrics.reactor_wakeups.inc();
        if shared.draining.load(Ordering::SeqCst) {
            break;
        }
        // 1. Kernel-reported readiness: dispatch (or reap a hung-up socket).
        for ready in &events {
            if ready.token == 0 {
                shared.wake.drain();
                continue;
            }
            let Some(entry) = parked.remove(&ready.token) else {
                continue; // raced with its own idle expiry this iteration
            };
            wheel.cancel(ready.token, entry.expires);
            poller.del(entry.conn.raw_fd());
            metrics.parked.dec();
            if ready.readable {
                dispatch(entry.conn, &queue, &metrics, queue_capacity, ready.hup);
            }
            // else: HUP/ERR with nothing to read — the peer vanished while
            // parked; dropping the Conn closes our half.
        }
        // 2. Newly parked connections from workers and the acceptor.
        let incoming: Vec<Conn> = std::mem::take(&mut *shared.inbox.lock().unwrap());
        for conn in incoming {
            let token = next_token;
            next_token += 1;
            if poller.add(conn.raw_fd(), token).is_err() {
                continue; // dropping the Conn closes the socket
            }
            let expires = wheel.now_tick() + wheel.idle_ticks;
            wheel.insert(token, expires);
            parked.insert(token, ParkedConn { conn, expires });
            metrics.parked.inc();
        }
        // 3. Idle deadlines.
        for token in wheel.advance(wheel.now_tick()) {
            if let Some(entry) = parked.remove(&token) {
                poller.del(entry.conn.raw_fd());
                metrics.parked.dec();
                // Dropping the Conn closes it — the old IdleTimeout path.
            }
        }
    }
    // Drain sweep: reap every parked socket and any in-flight parkee, so a
    // SIGTERM with thousands of parked connections leaves nothing behind.
    for (_, entry) in parked.drain() {
        poller.del(entry.conn.raw_fd());
        metrics.parked.dec();
    }
    drop(std::mem::take(&mut *shared.inbox.lock().unwrap()));
}

/// Hands a readable connection to the worker pool, shedding on overflow with
/// the bounded-write `503 Retry-After` the acceptor used for full queues.
fn dispatch(
    mut conn: Conn,
    queue: &Queue,
    metrics: &RuntimeMetrics,
    capacity: usize,
    peer_gone: bool,
) {
    // The dispatch stamp anchors the burst's request deadline: queue wait
    // counts against the budget, parked idle time does not.
    conn.note_dispatched();
    match queue.push(conn, capacity, &metrics.queue_depth) {
        Ok(()) => {}
        Err(rejected) => {
            if peer_gone {
                // Overflow caused by a disconnect flood (every FIN is
                // "readable"): just close — a 503 to a hung-up peer is a
                // wasted write and a phantom shed in the metrics.
                drop(rejected);
            } else {
                metrics.shed_connections.inc();
                shed_conn(rejected, metrics.queue_depth.get());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wheel_arms_cancels_and_expires() {
        let mut wheel = Wheel::new(Duration::from_millis(400));
        // 400 ms idle → 100 ms ticks, 5 idle ticks.
        assert_eq!(wheel.tick, Duration::from_millis(100));
        let expiry_a = wheel.now_tick() + wheel.idle_ticks;
        wheel.insert(1, expiry_a);
        wheel.insert(2, expiry_a + 1);
        assert!(wheel.next_deadline().is_some());
        // Cancelling one leaves the other armed.
        wheel.cancel(1, expiry_a);
        assert_eq!(wheel.armed, 1);
        // Advancing past both deadlines expires only the survivor.
        let expired = wheel.advance(expiry_a + 2);
        assert_eq!(expired, vec![2]);
        assert_eq!(wheel.armed, 0);
        assert!(wheel.next_deadline().is_none());
    }

    #[test]
    fn wheel_handles_long_stalls_past_one_revolution() {
        let mut wheel = Wheel::new(Duration::from_millis(100));
        let expiry = wheel.now_tick() + wheel.idle_ticks;
        wheel.insert(7, expiry);
        // A stall many revolutions long still expires the entry exactly once.
        let expired = wheel.advance(expiry + 10 * wheel.slots.len() as u64);
        assert_eq!(expired, vec![7]);
        assert!(wheel.advance(wheel.processed + 1).is_empty());
    }

    #[test]
    fn wake_pipe_round_trips() {
        let pipe = WakePipe::new().unwrap();
        pipe.wake();
        pipe.wake();
        let mut byte = [0u8; 8];
        let n = unsafe { sys::read(pipe.read_fd.0, byte.as_mut_ptr(), byte.len()) };
        assert!(n >= 1);
        pipe.drain();
        // Empty pipe: the non-blocking read reports nothing instead of
        // blocking the caller.
        let n = unsafe { sys::read(pipe.read_fd.0, byte.as_mut_ptr(), byte.len()) };
        assert!(n <= 0);
    }
}
