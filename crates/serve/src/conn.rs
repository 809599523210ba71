//! The one framed-connection state machine of the serving edge.
//!
//! `detserved`'s event loop, the group router (towards clients *and*
//! towards backends) and `detload`'s generator all drive nonblocking
//! sockets off [`detlock_shim::evloop::Poller`] the same way: read what
//! the socket has, reassemble newline frames, answer in request order,
//! write what the socket takes. [`FramedConn`] is the socket half of that
//! (read loop → [`FrameBuffer`], an out-queue of byte chunks, the flush
//! loop, the poller interest); [`SlotTable`] is the ordering half (one
//! slot per request frame, filled in any order, popped in arrival order).
//! Owners keep only what is theirs: fault coordinates, routing state,
//! in-flight bookkeeping.

use crate::protocol::FrameBuffer;
use detlock_shim::evloop::{Interest, RawFd, Readiness};
use detlock_shim::json::{Json, ToJson};
use std::collections::VecDeque;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

#[cfg(not(unix))]
use std::any::Any as Socket;
#[cfg(unix)]
use std::os::unix::io::AsRawFd as Socket;

/// The descriptor [`detlock_shim::evloop::Poller::push`] watches for a
/// listener or a stream (0 where the poller's portable fallback ignores it).
pub fn raw_fd(s: &impl Socket) -> RawFd {
    #[cfg(unix)]
    return s.as_raw_fd();
    #[cfg(not(unix))]
    return {
        let _ = s;
        0
    };
}

/// Accept everything a nonblocking listener has queued (level-triggered
/// readiness: the whole backlog, not one connection per wakeup).
pub fn accept_backlog(listener: &TcpListener, mut on_conn: impl FnMut(FramedConn)) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                let mut conn = FramedConn::new();
                if conn.attach(stream).is_ok() {
                    on_conn(conn);
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            // Backlog drained (would block) or the listener failed:
            // either way this wakeup has nothing more to hand over.
            Err(_) => break,
        }
    }
}

/// Bytes owed to the peer. `not_before` holds the chunk (and everything
/// behind it) back until a deadline; `close_after` ends the connection
/// once the bytes are out. Plain traffic sets neither.
struct OutChunk {
    bytes: Vec<u8>,
    written: usize,
    not_before: Option<Instant>,
    close_after: bool,
}

/// A nonblocking, newline-framed TCP connection, accepted or dialed.
///
/// I/O errors never surface as `Result`s: they mark the connection
/// [dead](FramedConn::is_dead), and the owner decides what a dead
/// connection means (reap it, fail over, re-dial after
/// [`FramedConn::reset`]).
#[derive(Default)]
pub struct FramedConn {
    stream: Option<TcpStream>,
    rbuf: FrameBuffer,
    out: VecDeque<OutChunk>,
    peer_closed: bool,
    dead: bool,
}

impl FramedConn {
    /// A connection with no socket yet (see [`FramedConn::attach`]).
    pub fn new() -> FramedConn {
        FramedConn::default()
    }

    /// Take over an accepted or freshly dialed stream: nonblocking, no
    /// Nagle delay.
    pub fn attach(&mut self, stream: TcpStream) -> io::Result<()> {
        stream.set_nonblocking(true)?;
        let _ = stream.set_nodelay(true);
        self.stream = Some(stream);
        Ok(())
    }

    /// Drop the socket and everything buffered in either direction, ready
    /// for a re-dial.
    pub fn reset(&mut self) {
        *self = FramedConn::new();
    }

    /// Whether a socket is attached.
    pub fn is_connected(&self) -> bool {
        self.stream.is_some()
    }

    /// The peer sent EOF (it may still be reading what it is owed).
    pub fn peer_closed(&self) -> bool {
        self.peer_closed
    }

    /// The connection failed or was closed on purpose; nothing more will
    /// be read or written.
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// Bytes are still owed to the peer.
    pub fn has_output(&self) -> bool {
        !self.out.is_empty()
    }

    /// The attached socket's descriptor, for the poller.
    ///
    /// # Panics
    /// If no socket is attached ([`FramedConn::interest`] names none then).
    pub fn fd(&self) -> RawFd {
        raw_fd(self.stream.as_ref().expect("fd() of an attached socket"))
    }

    /// React to the poller's verdict: drain the socket into the frame
    /// buffer until it would block. EOF sets [`FramedConn::peer_closed`];
    /// a final unterminated line still counts as a frame, like
    /// `BufRead::lines` would. A hangup with nothing left to read, or a
    /// read error, kills the connection.
    pub fn read_ready(&mut self, ready: Readiness, scratch: &mut [u8]) {
        let Some(stream) = self.stream.as_mut() else {
            return;
        };
        if !ready.readable || self.peer_closed {
            self.dead |= ready.error;
            return;
        }
        loop {
            match stream.read(scratch) {
                Ok(0) => {
                    self.peer_closed = true;
                    if self.rbuf.pending() > 0 {
                        self.rbuf.push(b"\n");
                    }
                    return;
                }
                Ok(n) => self.rbuf.push(&scratch[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
    }

    /// The next complete, non-blank frame read so far.
    pub fn next_frame(&mut self) -> Option<String> {
        loop {
            let line = self.rbuf.next_frame()?;
            if !line.trim().is_empty() {
                return Some(line);
            }
        }
    }

    /// Owe the peer `bytes` (the common case: no gate, no close).
    pub fn queue(&mut self, bytes: Vec<u8>) {
        match self.out.back_mut() {
            // Ungated neighbours go out in one write.
            Some(last) if last.not_before.is_none() && !last.close_after => {
                last.bytes.extend_from_slice(&bytes)
            }
            _ => self.queue_gated(bytes, None, false),
        }
    }

    /// Owe the peer `bytes`, not before `not_before` (a timer, not a
    /// sleep: nothing else stalls), and close once they are out when
    /// `close_after` — an empty closing chunk just closes.
    pub fn queue_gated(&mut self, bytes: Vec<u8>, not_before: Option<Instant>, close_after: bool) {
        self.out.push_back(OutChunk {
            bytes,
            written: 0,
            not_before,
            close_after,
        });
    }

    /// Write as much owed output as the socket accepts at `now`. A gated
    /// chunk stops the flush until its deadline passes.
    pub fn flush(&mut self, now: Instant) {
        let Some(stream) = self.stream.as_mut() else {
            return;
        };
        while let Some(chunk) = self.out.front_mut() {
            if chunk.not_before.is_some_and(|nb| now < nb) {
                return;
            }
            while chunk.written < chunk.bytes.len() {
                match stream.write(&chunk.bytes[chunk.written..]) {
                    Ok(0) => {
                        self.dead = true;
                        return;
                    }
                    Ok(n) => chunk.written += n,
                    Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => {
                        self.dead = true;
                        return;
                    }
                }
            }
            if chunk.close_after {
                self.dead = true;
                return;
            }
            self.out.pop_front();
        }
    }

    /// What to ask the poller for at `now`: reads until the peer closes,
    /// writes while ungated bytes are owed — and, when the next chunk is
    /// gated, how long until its deadline instead (wake on the timer, not
    /// on writability).
    pub fn interest(&self, now: Instant) -> (Option<Interest>, Option<Duration>) {
        if self.stream.is_none() {
            return (None, None);
        }
        let (writes, timer) = match self.out.front() {
            None => (false, None),
            Some(chunk) => match chunk.not_before {
                Some(nb) if nb > now => (false, Some((nb - now).max(Duration::from_millis(1)))),
                _ => (true, None),
            },
        };
        let interest = match (!self.peer_closed, writes) {
            (true, true) => Some(Interest::BOTH),
            (true, false) => Some(Interest::READABLE),
            (false, true) => Some(Interest::WRITABLE),
            (false, false) => None,
        };
        (interest, timer)
    }
}

/// What a response slot answers. `Run` and `Batch` are data-plane
/// frames; a `Batch` slot renders as `{"ok":true,"results":[…]}` even
/// when it carries a single frame-level error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotKind {
    /// A control-plane op (`stats`, `hello`, `shutdown`, …).
    Control,
    /// A v1 `run` frame: one result.
    Run,
    /// A v2 `batch` frame: one result per job.
    Batch,
}

struct Slot {
    kind: SlotKind,
    results: Vec<Option<Json>>,
    remaining: usize,
}

/// The response frames a connection owes, in request order. Results
/// arrive in any order (shards and backends finish when they finish);
/// a frame is released only when it is complete *and* every earlier one
/// has been released — that is what makes pipelining answer in order.
#[derive(Default)]
pub struct SlotTable {
    slots: VecDeque<Slot>,
    /// Id of `slots.front()`; ids are issued monotonically.
    base: u64,
}

impl SlotTable {
    /// Reserve the next response frame, `width` results wide (≥ 1).
    pub fn alloc(&mut self, kind: SlotKind, width: usize) -> u64 {
        assert!(width >= 1, "a response frame carries at least one result");
        self.slots.push_back(Slot {
            kind,
            results: vec![None; width],
            remaining: width,
        });
        self.base + self.slots.len() as u64 - 1
    }

    /// Deliver result `idx` of frame `slot`. A fill for a frame already
    /// released, or for a result already delivered, is ignored.
    pub fn fill(&mut self, slot: u64, idx: usize, result: Json) {
        let frame = slot
            .checked_sub(self.base)
            .and_then(|off| self.slots.get_mut(off as usize));
        if let Some(s) = frame {
            if matches!(s.results.get(idx), Some(None)) {
                s.results[idx] = Some(result);
                s.remaining -= 1;
            }
        }
    }

    /// Reserve a one-result frame that is already answered (control ops,
    /// frame-level errors).
    pub fn push_ready(&mut self, kind: SlotKind, result: Json) {
        let id = self.alloc(kind, 1);
        self.fill(id, 0, result);
    }

    /// Release the oldest frame if it is complete: its kind and its wire
    /// line, newline included.
    pub fn pop_ready(&mut self) -> Option<(SlotKind, Vec<u8>)> {
        if self.slots.front()?.remaining > 0 {
            return None;
        }
        let slot = self.slots.pop_front()?;
        self.base += 1;
        let mut results = slot.results.into_iter().flatten();
        let resp = match slot.kind {
            SlotKind::Batch => Json::obj([
                ("ok", true.to_json()),
                ("results", Json::Arr(results.collect())),
            ]),
            _ => results.next().expect("a complete frame has its result"),
        };
        let mut line = resp.to_string_compact().into_bytes();
        line.push(b'\n');
        Some((slot.kind, line))
    }

    /// No frame is owed.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use detlock_shim::evloop::Poller;
    use std::sync::mpsc;

    /// A connected loopback pair: the `FramedConn` under test and the
    /// plain blocking stream playing its peer.
    fn pair() -> (FramedConn, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        peer.set_nodelay(true).unwrap();
        listener.set_nonblocking(true).unwrap();
        let mut accepted = Vec::new();
        while accepted.is_empty() {
            accept_backlog(&listener, |c| accepted.push(c));
        }
        (accepted.pop().unwrap(), peer)
    }

    /// Block until the poller reports `conn` ready for its interest, then
    /// read; returns the frames that completed.
    fn pump(conn: &mut FramedConn) -> Vec<String> {
        let mut poller = Poller::new();
        let (interest, _) = conn.interest(Instant::now());
        let idx = poller.push(conn.fd(), interest.expect("conn still has interest"));
        assert!(poller.wait(Some(Duration::from_secs(10))).unwrap() >= 1);
        conn.read_ready(poller.ready(idx), &mut [0u8; 7]);
        std::iter::from_fn(|| conn.next_frame()).collect()
    }

    #[test]
    fn frames_survive_every_split_and_coalescing() {
        let wire = b"alpha\n{\"op\":\"ping\"}\r\n\ngamma\n";
        let want = ["alpha", "{\"op\":\"ping\"}", "gamma"];
        // Split at every byte boundary; 0 is the fully coalesced write.
        for cut in 0..wire.len() {
            let (mut conn, mut peer) = pair();
            let mut got = Vec::new();
            if cut > 0 {
                peer.write_all(&wire[..cut]).unwrap();
                got.extend(pump(&mut conn));
            }
            peer.write_all(&wire[cut..]).unwrap();
            while got.len() < want.len() {
                got.extend(pump(&mut conn));
            }
            assert_eq!(got, want, "cut at byte {cut}");
            assert!(!conn.peer_closed() && !conn.is_dead());
        }
    }

    #[test]
    fn eof_yields_the_unterminated_tail_as_a_frame() {
        let (mut conn, mut peer) = pair();
        peer.write_all(b"one\ntail").unwrap();
        drop(peer);
        let mut got = Vec::new();
        while !conn.peer_closed() {
            got.extend(pump(&mut conn));
        }
        assert_eq!(got, ["one", "tail"]);
        assert!(
            !conn.is_dead(),
            "a half-closed peer may still be owed output"
        );
        assert_eq!(conn.interest(Instant::now()), (None, None));

        conn.queue(b"late".to_vec());
        conn.reset();
        assert!(!conn.is_connected() && !conn.has_output() && !conn.peer_closed());
    }

    #[test]
    fn flush_resumes_after_would_block() {
        let (mut conn, mut peer) = pair();
        let payload: Vec<u8> = (0..16u32 << 20).map(|i| (i % 251) as u8).collect();
        conn.queue(payload[..1 << 20].to_vec());
        conn.queue(payload[1 << 20..].to_vec());

        // The peer reads nothing until told to, so the kernel buffers fill
        // and the flush must stop short with the socket still healthy.
        let (go, gate) = mpsc::channel::<()>();
        let want = payload.len();
        let reader = std::thread::spawn(move || {
            gate.recv().unwrap();
            let mut got = vec![0u8; want];
            peer.read_exact(&mut got).unwrap();
            got
        });
        conn.flush(Instant::now());
        assert!(conn.has_output() && !conn.is_dead());
        assert_eq!(conn.interest(Instant::now()).0, Some(Interest::BOTH));

        go.send(()).unwrap();
        let mut poller = Poller::new();
        while conn.has_output() {
            poller.clear();
            poller.push(conn.fd(), Interest::WRITABLE);
            poller.wait(Some(Duration::from_secs(10))).unwrap();
            conn.flush(Instant::now());
            assert!(!conn.is_dead());
        }
        assert!(reader.join().unwrap() == payload, "bytes reordered or lost");
    }

    #[test]
    fn gates_hold_bytes_back_and_close_after_closes() {
        let (mut conn, mut peer) = pair();
        peer.set_read_timeout(Some(Duration::from_millis(30)))
            .unwrap();
        let now = Instant::now();
        let deadline = now + Duration::from_secs(3600);
        conn.queue(b"now;".to_vec());
        conn.queue_gated(b"later;".to_vec(), Some(deadline), false);
        conn.queue(b"after;".to_vec());
        conn.queue_gated(b"bye".to_vec(), None, true);

        conn.flush(now);
        let mut buf = [0u8; 64];
        assert_eq!(peer.read(&mut buf).unwrap(), 4);
        assert_eq!(&buf[..4], b"now;");
        assert!(peer.read(&mut buf).is_err(), "gated bytes leaked early");
        // Gated: the poller is asked for the timer, not for writability.
        assert_eq!(
            conn.interest(now),
            (Some(Interest::READABLE), Some(Duration::from_secs(3600)))
        );
        assert!(!conn.is_dead());

        // Past the deadline everything behind the gate goes out in order,
        // and the closing chunk takes the connection down with it.
        assert_eq!(conn.interest(deadline).0, Some(Interest::BOTH));
        conn.flush(deadline);
        assert!(conn.is_dead());
        drop(conn);
        let mut rest = Vec::new();
        peer.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        peer.read_to_end(&mut rest).unwrap();
        assert_eq!(rest, b"later;after;bye");
    }

    fn text(popped: Option<(SlotKind, Vec<u8>)>) -> Option<(SlotKind, String)> {
        popped.map(|(k, line)| (k, String::from_utf8(line).unwrap()))
    }

    #[test]
    fn slots_fill_in_any_order_and_pop_in_request_order() {
        let mut t = SlotTable::default();
        let run = t.alloc(SlotKind::Run, 1);
        let batch = t.alloc(SlotKind::Batch, 2);
        t.push_ready(SlotKind::Control, Json::Str("pong".into()));
        assert_eq!((run, batch), (0, 1));

        // Later frames complete first; nothing is released past frame 0.
        t.fill(batch, 1, 11u64.to_json());
        t.fill(batch, 0, 10u64.to_json());
        assert_eq!(t.pop_ready(), None);

        t.fill(run, 0, Json::Str("ran".into()));
        assert_eq!(
            text(t.pop_ready()),
            Some((SlotKind::Run, "\"ran\"\n".into()))
        );
        assert_eq!(
            text(t.pop_ready()),
            Some((
                SlotKind::Batch,
                "{\"ok\":true,\"results\":[10,11]}\n".into()
            ))
        );
        assert_eq!(
            text(t.pop_ready()),
            Some((SlotKind::Control, "\"pong\"\n".into()))
        );
        assert!(t.is_empty() && t.pop_ready().is_none());
    }

    #[test]
    fn stale_double_and_out_of_range_fills_are_ignored() {
        let mut t = SlotTable::default();
        let first = t.alloc(SlotKind::Run, 1);
        t.fill(first, 0, 1u64.to_json());
        t.fill(first, 0, 2u64.to_json()); // double: the first answer stands
        t.fill(first, 5, 3u64.to_json()); // no such result
        t.fill(first + 7, 0, 4u64.to_json()); // no such frame
        assert_eq!(text(t.pop_ready()), Some((SlotKind::Run, "1\n".into())));

        // Stale: the frame is gone; its id must not alias the next one.
        let second = t.alloc(SlotKind::Run, 1);
        t.fill(first, 0, 9u64.to_json());
        assert_eq!(t.pop_ready(), None);
        t.fill(second, 0, 5u64.to_json());
        assert_eq!(text(t.pop_ready()), Some((SlotKind::Run, "5\n".into())));

        // A frame-level batch error still renders batch-shaped.
        t.push_ready(SlotKind::Batch, Json::Str("no jobs".into()));
        assert_eq!(
            text(t.pop_ready()),
            Some((
                SlotKind::Batch,
                "{\"ok\":true,\"results\":[\"no jobs\"]}\n".into()
            ))
        );
    }
}
