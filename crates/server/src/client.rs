//! A minimal blocking TCP client for the line-delimited JSON protocol.
//!
//! One struct, four verbs — connect, send, read, round-trip — shared by
//! everything that speaks to a `dbwipes-server` over a socket: the
//! executor lifecycle tests (a fleet larger than the pool among them), the
//! fault tests and the binary end-to-end tests. Sets `TCP_NODELAY` on
//! connect (the protocol's one-line ping-pong is exactly the shape Nagle +
//! delayed ACKs stall) and applies a caller-chosen read timeout so a
//! wedged server fails a caller instead of hanging it.
//!
//! Errors are `String`s, like the rest of the protocol layer: this client
//! is for drivers and harnesses, which either retry (`busy`) or report.

use crate::json::Json;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

/// A connected line-protocol client.
#[derive(Debug)]
pub struct LineClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl LineClient {
    /// Connects to `addr`, enabling `TCP_NODELAY` and applying
    /// `read_timeout` to every reply read.
    pub fn connect(addr: &str, read_timeout: Duration) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        let _ = stream.set_nodelay(true);
        stream
            .set_read_timeout(Some(read_timeout))
            .map_err(|e| format!("set_read_timeout: {e}"))?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(LineClient { reader, writer: stream })
    }

    /// Sends one request line, newline included, in a single write.
    pub fn send(&mut self, line: &str) -> Result<(), String> {
        let framed = [line, "\n"].concat();
        self.writer.write_all(framed.as_bytes()).map_err(|e| format!("write failed: {e}"))
    }

    /// Reads one reply line. `Ok(None)` is a clean server-side close
    /// (EOF); anything unparseable or a timed-out read is an error.
    pub fn read_reply(&mut self) -> Result<Option<Json>, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Ok(None),
            Ok(_) => Json::parse(line.trim()).map(Some).map_err(|e| format!("bad reply JSON: {e}")),
            Err(e) => Err(format!("dropped reply: {e}")),
        }
    }

    /// Sends one request line and reads its reply; a close instead of a
    /// reply is an error ("dropped reply").
    pub fn roundtrip(&mut self, line: &str) -> Result<Json, String> {
        self.send(line)?;
        self.read_reply()?.ok_or_else(|| "dropped reply: connection closed".to_string())
    }

    /// Reads replies until the server closes the connection, returning
    /// whatever arrived on the way (timeout notices, shutdown notices).
    pub fn read_to_eof(&mut self) -> Result<Vec<Json>, String> {
        let mut seen = Vec::new();
        while let Some(reply) = self.read_reply()? {
            seen.push(reply);
        }
        Ok(seen)
    }
}
