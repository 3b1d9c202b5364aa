//! The TCP line protocol: one session per connection over the shared
//! [`Engine`].
//!
//! Wire format (UTF-8 text, newline-framed):
//!
//! * on connect the server sends a greeting line, then a lone `.`;
//! * the client sends **one line per request** — a command of the
//!   session grammar ([`pgq_parser::parse_command`]), a `;`-separated
//!   batch of them, or `QUIT`;
//! * the server answers with zero or more response lines (`-- ` notes,
//!   `!! ` typed errors, bare result rows) terminated by a lone `.`;
//! * protocol-level failures (a line longer than [`MAX_LINE`], bytes
//!   that are not valid UTF-8) produce a typed `!! protocol: …`
//!   response — the connection stays up and the next line is read
//!   normally;
//! * `QUIT` (or `EXIT`, or just closing the socket — mid-line
//!   included) ends the session; the server and its shared store are
//!   unaffected.

use crate::engine::{split_statements, Engine, SessionState};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Upper bound on one request line, terminator included. Longer lines
/// are drained and answered with a typed protocol error.
pub const MAX_LINE: usize = 64 * 1024;

/// The response terminator line.
pub const TERMINATOR: &str = ".";

/// A running server: background accept loop plus per-connection
/// session threads, all sharing one [`Engine`].
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral test port)
    /// and starts accepting connections on a background thread.
    pub fn bind(engine: Arc<Engine>, addr: impl ToSocketAddrs) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let accept_thread = std::thread::spawn(move || accept_loop(&listener, &engine, &flag));
        Ok(Server {
            addr,
            stop,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (the source of the ephemeral port in tests).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting new connections and joins the accept loop.
    /// Existing sessions run to completion on their own threads.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: &TcpListener, engine: &Arc<Engine>, stop: &Arc<AtomicBool>) {
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = conn else { continue };
        let engine = Arc::clone(engine);
        // Session threads are detached: they end when their client
        // disconnects, and they hold no lock between requests, so
        // server shutdown never waits on an idle client.
        std::thread::spawn(move || {
            let _ = serve_connection(stream, &engine);
        });
    }
}

/// One request line, read with a hard size bound.
enum LineRead {
    /// A complete line (terminator stripped).
    Line(String),
    /// The peer closed the connection (mid-line counts: a partial
    /// trailing line without its newline is discarded, not executed).
    Eof,
    /// The line exceeded [`MAX_LINE`]; the excess was drained.
    Oversized,
    /// The line was not valid UTF-8.
    BadUtf8,
}

fn read_line_bounded(reader: &mut impl BufRead) -> io::Result<LineRead> {
    let mut buf: Vec<u8> = Vec::new();
    loop {
        let chunk = reader.fill_buf()?;
        if chunk.is_empty() {
            return Ok(LineRead::Eof);
        }
        if let Some(pos) = chunk.iter().position(|&b| b == b'\n') {
            buf.extend_from_slice(&chunk[..pos]);
            reader.consume(pos + 1);
            if buf.len() > MAX_LINE {
                return Ok(LineRead::Oversized);
            }
            if buf.last() == Some(&b'\r') {
                buf.pop();
            }
            return match String::from_utf8(buf) {
                Ok(s) => Ok(LineRead::Line(s)),
                Err(_) => Ok(LineRead::BadUtf8),
            };
        }
        let len = chunk.len();
        // Keep accumulating only up to the bound; oversized lines are
        // drained chunk by chunk without buffering the flood.
        if buf.len() <= MAX_LINE {
            buf.extend_from_slice(chunk);
        }
        reader.consume(len);
    }
}

fn send(stream: &mut TcpStream, lines: &[String]) -> io::Result<()> {
    let mut out = String::new();
    for line in lines {
        out.push_str(line);
        out.push('\n');
    }
    out.push_str(TERMINATOR);
    out.push('\n');
    stream.write_all(out.as_bytes())?;
    stream.flush()
}

/// Serves one connection until `QUIT` or disconnect. Any statement
/// failure is a typed `!! ` response; only genuine socket errors
/// terminate the loop, and those only end *this* session.
fn serve_connection(mut stream: TcpStream, engine: &Arc<Engine>) -> io::Result<()> {
    // Request/response lines are tiny; without this Nagle + delayed
    // ACK can stall each round trip by tens of milliseconds.
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut session = SessionState::default();
    send(
        &mut stream,
        &["-- pgq-server ready (one statement batch per line; QUIT to leave)".to_string()],
    )?;
    loop {
        match read_line_bounded(&mut reader)? {
            LineRead::Eof => return Ok(()),
            LineRead::Oversized => send(
                &mut stream,
                &[format!("!! protocol: request exceeds {MAX_LINE} bytes")],
            )?,
            LineRead::BadUtf8 => send(
                &mut stream,
                &["!! protocol: request is not valid UTF-8".to_string()],
            )?,
            LineRead::Line(line) => {
                let trimmed = line.trim();
                if trimmed.eq_ignore_ascii_case("QUIT") || trimmed.eq_ignore_ascii_case("EXIT") {
                    send(&mut stream, &["-- bye".to_string()])?;
                    return Ok(());
                }
                let mut lines = Vec::new();
                for stmt in split_statements(&line) {
                    lines.extend(engine.statement(&mut session, stmt.trim()));
                }
                send(&mut stream, &lines)?;
            }
        }
    }
}

/// A blocking line-protocol client — the counterpart the protocol
/// tests and the benchmark's load generator drive.
pub struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connects and consumes the greeting.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        let mut client = Client { stream, reader };
        client.read_response()?;
        Ok(client)
    }

    /// Sends one request line and returns the response lines (without
    /// the terminator).
    pub fn request(&mut self, line: &str) -> io::Result<Vec<String>> {
        self.stream.write_all(line.as_bytes())?;
        self.stream.write_all(b"\n")?;
        self.stream.flush()?;
        self.read_response()
    }

    /// Sends raw bytes without framing — the malformed-input tests'
    /// entry point.
    pub fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.stream.write_all(bytes)?;
        self.stream.flush()
    }

    /// Reads one `.`-terminated response.
    pub fn read_response(&mut self) -> io::Result<Vec<String>> {
        let mut lines = Vec::new();
        loop {
            let mut line = String::new();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed mid-response",
                ));
            }
            let line = line.trim_end_matches(['\n', '\r']);
            if line == TERMINATOR {
                return Ok(lines);
            }
            lines.push(line.to_string());
        }
    }

    /// Half-closes the write side (simulates a client vanishing
    /// mid-line) and drains whatever the server still sends.
    pub fn abort_write(&mut self) -> io::Result<()> {
        self.stream.shutdown(std::net::Shutdown::Write)?;
        let mut rest = Vec::new();
        let _ = self.reader.read_to_end(&mut rest);
        Ok(())
    }
}
