//! One client connection: a framed NDJSON reader with oversized-frame
//! and slow-loris guards, and a dedicated writer thread.
//!
//! The reader owns the session thread. Every response — computed result,
//! typed protocol error, shed notice, drain flush — travels through one
//! mpsc channel to the writer thread, so scheduler workers fan results
//! into many sessions without ever blocking on a slow client's socket.
//! The writer exits when the last sender drops: the session's own handle
//! when the read loop ends, plus one clone per in-flight request — a
//! client that disconnects mid-request therefore still drains its
//! pending results (into a closed socket, counted as a disconnect)
//! without wedging any worker. [`run_session`] hands the writer thread
//! back, so a caller that needs every response on the wire joins it once
//! the scheduler has answered the session's requests.

use super::protocol::{parse_frame, render_error, render_ok, Frame, ProtocolError};
use super::scheduler::Scheduler;
use super::ServerConfig;
use std::io::{BufWriter, Read, Write};
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Connections accepted (unix socket) or opened (stdio counts as one).
static SERVER_CONNECTIONS: obs::LazyCounter = obs::LazyCounter::new("server.connections");
/// Sessions whose client went away before all responses were written.
static SERVER_DISCONNECTS: obs::LazyCounter = obs::LazyCounter::new("server.disconnects");

fn protocol_error_count(kind: &str) {
    obs::global()
        .counter(&format!("server.protocol.{kind}"))
        .inc();
}

/// What one call to [`FrameReader::next_event`] observed.
#[derive(Debug, PartialEq)]
pub enum ReadEvent {
    /// A complete line, under the byte cap (not yet parsed).
    Frame(String),
    /// A typed protocol failure. `Oversized` is recoverable (the rest of
    /// the line is discarded); `Stalled` means the caller must close.
    Error(ProtocolError),
    /// The read timed out with no progress — a chance to poll drain
    /// state. Only produced when the underlying stream has a read
    /// timeout set.
    Tick,
    /// End of stream (clean EOF or a hard I/O error).
    Eof,
}

/// Incremental NDJSON line reader with two abuse guards:
///
/// * **Oversized**: a line exceeding `max_frame_bytes` is reported once
///   and discarded through its terminating newline; the session lives on.
/// * **Slow-loris**: a *partial* line that makes no progress for
///   `frame_stall_ms` is reported as [`ProtocolError::Stalled`]; the
///   caller closes the connection. Timeouts with an empty buffer are
///   plain [`ReadEvent::Tick`]s — an idle client is not an attack.
pub struct FrameReader<R: Read> {
    inner: R,
    pending: Vec<u8>,
    chunk: [u8; 4096],
    max_frame_bytes: usize,
    frame_stall: Duration,
    /// When the current (incomplete) line started stalling.
    partial_since: Option<Instant>,
    /// Discarding the remainder of an oversized line.
    discarding: bool,
}

impl<R: Read> FrameReader<R> {
    pub fn new(inner: R, max_frame_bytes: usize, frame_stall_ms: u64) -> Self {
        FrameReader {
            inner,
            pending: Vec::new(),
            chunk: [0u8; 4096],
            max_frame_bytes,
            frame_stall: Duration::from_millis(frame_stall_ms.max(1)),
            partial_since: None,
            discarding: false,
        }
    }

    /// Extract the next complete line from `pending`, if any, honoring
    /// the discard state.
    fn take_line(&mut self) -> Option<ReadEvent> {
        loop {
            let nl = self.pending.iter().position(|b| *b == b'\n');
            if self.discarding {
                match nl {
                    Some(pos) => {
                        // the oversized line finally ended; drop it
                        self.pending.drain(..=pos);
                        self.discarding = false;
                        continue;
                    }
                    None => {
                        self.pending.clear();
                        return None;
                    }
                }
            }
            match nl {
                Some(pos) if pos > self.max_frame_bytes => {
                    // a complete line over the cap: drop it whole
                    self.pending.drain(..=pos);
                    self.partial_since = None;
                    return Some(ReadEvent::Error(ProtocolError::Oversized {
                        limit: self.max_frame_bytes,
                    }));
                }
                Some(pos) => {
                    let line: Vec<u8> = self.pending.drain(..=pos).collect();
                    self.partial_since = None;
                    let text = String::from_utf8_lossy(&line[..pos]).into_owned();
                    if text.trim().is_empty() {
                        continue; // blank lines are keep-alive noise
                    }
                    return Some(ReadEvent::Frame(text));
                }
                None => {
                    if self.pending.len() > self.max_frame_bytes {
                        self.discarding = true;
                        self.partial_since = None;
                        return Some(ReadEvent::Error(ProtocolError::Oversized {
                            limit: self.max_frame_bytes,
                        }));
                    }
                    if !self.pending.is_empty() && self.partial_since.is_none() {
                        self.partial_since = Some(Instant::now());
                    }
                    return None;
                }
            }
        }
    }

    /// Block (up to the stream's read timeout) for the next event.
    pub fn next_event(&mut self) -> ReadEvent {
        if let Some(ev) = self.take_line() {
            return ev;
        }
        loop {
            match self.inner.read(&mut self.chunk) {
                Ok(0) => {
                    // final unterminated line still counts as a frame
                    if !self.pending.is_empty() && !self.discarding {
                        let text = String::from_utf8_lossy(&self.pending).into_owned();
                        self.pending.clear();
                        if !text.trim().is_empty() {
                            return ReadEvent::Frame(text);
                        }
                    }
                    return ReadEvent::Eof;
                }
                Ok(n) => {
                    // note: the stall clock is NOT reset by progress — it
                    // marks when the current partial line began, so a
                    // byte-at-a-time drip feeder cannot evade the guard
                    self.pending.extend_from_slice(&self.chunk[..n]);
                    if let Some(ev) = self.take_line() {
                        return ev;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    if let Some(since) = self.partial_since {
                        let waited = since.elapsed();
                        if waited >= self.frame_stall {
                            return ReadEvent::Error(ProtocolError::Stalled {
                                waited_ms: waited.as_millis() as u64,
                            });
                        }
                    }
                    return ReadEvent::Tick;
                }
                Err(_) => return ReadEvent::Eof,
            }
        }
    }
}

/// Spawn the writer half: drains response frames from the channel onto
/// the client stream, one line each. Returns the sender side and the
/// writer thread, which ends once every sender has dropped. Write
/// failures mark the session disconnected but keep draining the channel
/// so scheduler workers never block on a dead client.
fn spawn_writer<W: Write + Send + 'static>(writer: W) -> (Sender<String>, JoinHandle<()>) {
    let (tx, rx) = channel::<String>();
    let thread = std::thread::Builder::new()
        .name("serve-writer".into())
        .spawn(move || {
            let mut out = BufWriter::new(writer);
            let mut dead = false;
            while let Ok(frame) = rx.recv() {
                if dead {
                    continue;
                }
                let failed = out
                    .write_all(frame.as_bytes())
                    .and_then(|()| out.write_all(b"\n"))
                    .and_then(|()| out.flush())
                    .is_err();
                if failed {
                    dead = true;
                    SERVER_DISCONNECTS.inc();
                }
            }
        })
        .expect("spawn session writer");
    (tx, thread)
}

/// Why the session's read loop ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionEnd {
    /// The client closed (or the stream failed hard).
    Eof,
    /// The slow-loris guard fired; the connection was reported and closed.
    Stalled,
    /// The client asked the server to drain.
    DrainRequested,
}

/// Serve one connection until EOF, a stall, or a drain request. All
/// protocol violations produce typed error frames; nothing here panics
/// or wedges. The returned [`SessionEnd`] tells the accept loop whether
/// the client requested a drain. The returned writer thread is still
/// delivering: it finishes once the scheduler has answered every request
/// the session submitted, so join it (after a drain, at the latest)
/// before relying on the responses having been written.
pub fn run_session<R, W>(
    reader: R,
    writer: W,
    scheduler: &Arc<Scheduler>,
    cfg: &ServerConfig,
) -> (SessionEnd, JoinHandle<()>)
where
    R: Read,
    W: Write + Send + 'static,
{
    SERVER_CONNECTIONS.inc();
    let (tx, writer) = spawn_writer(writer);
    let mut frames = FrameReader::new(reader, cfg.max_frame_bytes, cfg.frame_stall_ms);
    let mut drain_requested = false;
    let end = loop {
        match frames.next_event() {
            ReadEvent::Frame(line) => match parse_frame(&line) {
                Ok(Frame::Estimate(req)) => {
                    let id = req.id.clone();
                    if let Err(rejection) = scheduler.submit(req, tx.clone()) {
                        let _ = tx.send(rejection.to_frame(&id));
                    }
                }
                Ok(Frame::Ping { id }) => {
                    let state = cfg.drain.state().name();
                    let _ = tx.send(render_ok(
                        id.as_deref(),
                        &format!("{{\"pong\":true,\"state\":\"{state}\"}}"),
                    ));
                }
                Ok(Frame::Stats { id }) => {
                    let _ = tx.send(render_ok(
                        id.as_deref(),
                        &obs::global().snapshot().to_json(),
                    ));
                }
                Ok(Frame::Drain { id }) => {
                    cfg.drain.request_drain();
                    drain_requested = true;
                    let _ = tx.send(render_ok(id.as_deref(), "{\"draining\":true}"));
                }
                Err(e) => {
                    protocol_error_count(e.kind());
                    let _ = tx.send(render_error(e.id(), e.kind(), &e.detail()));
                }
            },
            ReadEvent::Error(e) => {
                protocol_error_count(e.kind());
                let fatal = matches!(e, ProtocolError::Stalled { .. });
                let _ = tx.send(render_error(e.id(), e.kind(), &e.detail()));
                if fatal {
                    break SessionEnd::Stalled;
                }
            }
            ReadEvent::Tick => {
                // nothing to do: admission rejections already carry typed
                // `draining` errors once a drain starts
            }
            ReadEvent::Eof => break SessionEnd::Eof,
        }
    };
    let end = if drain_requested && end == SessionEnd::Eof {
        SessionEnd::DrainRequested
    } else {
        end
    };
    (end, writer)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reader_splits_lines_and_accepts_final_unterminated_frame() {
        let data = b"{\"op\":\"ping\"}\n\n{\"op\":\"stats\"}".to_vec();
        let mut r = FrameReader::new(&data[..], 1024, 1000);
        assert_eq!(r.next_event(), ReadEvent::Frame("{\"op\":\"ping\"}".into()));
        // the blank line is skipped, not surfaced
        assert_eq!(
            r.next_event(),
            ReadEvent::Frame("{\"op\":\"stats\"}".into())
        );
        assert_eq!(r.next_event(), ReadEvent::Eof);
    }

    #[test]
    fn oversized_line_is_reported_once_and_discarded() {
        let mut data = vec![b'x'; 100];
        data.push(b'\n');
        data.extend_from_slice(b"{\"op\":\"ping\"}\n");
        let mut r = FrameReader::new(&data[..], 16, 1000);
        match r.next_event() {
            ReadEvent::Error(ProtocolError::Oversized { limit }) => assert_eq!(limit, 16),
            other => panic!("expected oversized, got {other:?}"),
        }
        // the session recovers: the next well-formed frame still arrives
        assert_eq!(r.next_event(), ReadEvent::Frame("{\"op\":\"ping\"}".into()));
        assert_eq!(r.next_event(), ReadEvent::Eof);
    }

    /// A reader that yields one partial fragment, then endless timeouts —
    /// the shape of a slow-loris client.
    struct Loris {
        fragment: Option<&'static [u8]>,
    }
    impl Read for Loris {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            match self.fragment.take() {
                Some(f) => {
                    buf[..f.len()].copy_from_slice(f);
                    Ok(f.len())
                }
                None => Err(std::io::Error::from(std::io::ErrorKind::WouldBlock)),
            }
        }
    }

    #[test]
    fn slow_loris_partial_frame_stalls_out() {
        let mut r = FrameReader::new(
            Loris {
                fragment: Some(b"{\"op\":\"est"),
            },
            1024,
            30, // 30 ms stall budget
        );
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match r.next_event() {
                ReadEvent::Tick => {
                    assert!(Instant::now() < deadline, "stall guard never fired");
                    std::thread::sleep(Duration::from_millis(5));
                }
                ReadEvent::Error(ProtocolError::Stalled { waited_ms }) => {
                    assert!(waited_ms >= 30);
                    break;
                }
                other => panic!("expected tick/stall, got {other:?}"),
            }
        }
    }

    #[test]
    fn idle_connection_ticks_without_stalling() {
        let mut r = FrameReader::new(Loris { fragment: None }, 1024, 10);
        std::thread::sleep(Duration::from_millis(30));
        // no partial frame pending: timeouts are ticks forever
        assert_eq!(r.next_event(), ReadEvent::Tick);
        assert_eq!(r.next_event(), ReadEvent::Tick);
    }
}
