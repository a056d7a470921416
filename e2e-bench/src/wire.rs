//! The benchmark's own HTTP client side: `TCP_NODELAY` sockets and every
//! request sent in one write, so the measured latency describes the
//! server and not a client-side Nagle stall.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use ascend_http::client::{self, ClientResponse};

/// Deadline for any single socket operation; a request that exceeds it
/// counts as failed.
pub const IO_TIMEOUT: Duration = Duration::from_secs(5);

/// The full bytes of one `POST` request (head and body in one buffer).
pub fn request_bytes(path: &str, payload: &[u8], close: bool) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 128);
    client::write_request(&mut out, "POST", path, payload, close)
        .expect("writing into a Vec cannot fail");
    out
}

/// One client connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        Ok(Conn {
            reader: BufReader::new(stream),
        })
    }

    /// Sends a request in one write.
    pub fn send(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.reader.get_mut().write_all(bytes)
    }

    /// Blocks until the first response byte has arrived.
    pub fn await_first_byte(&mut self) -> io::Result<()> {
        if self.reader.fill_buf()?.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "closed before responding",
            ));
        }
        Ok(())
    }

    /// Reads one whole response.
    pub fn recv(&mut self) -> io::Result<ClientResponse> {
        client::read_response(&mut self.reader)
    }

    /// Waits for the server to close the connection, so the server side
    /// closes first and the client's ephemeral port is not left in
    /// TIME_WAIT (connection churn would otherwise exhaust the ports).
    pub fn await_close(mut self) {
        let mut sink = [0u8; 64];
        while matches!(self.reader.read(&mut sink), Ok(n) if n > 0) {}
    }
}

/// The timeline of one request on the client side.
pub struct Exchange {
    pub response: ClientResponse,
    /// Connect (fresh socket) or write (reused socket) start.
    pub start: Instant,
    pub connected: Option<Instant>,
    pub sent: Instant,
    pub first_byte: Instant,
    pub done: Instant,
}

/// Sends one request on `conn` (opening a fresh socket when `None`) and
/// reads the response, recording the client-side timeline.
pub fn exchange(addr: SocketAddr, conn: &mut Option<Conn>, bytes: &[u8]) -> io::Result<Exchange> {
    let start = Instant::now();
    let connected = match conn {
        Some(_) => None,
        None => {
            *conn = Some(Conn::open(addr)?);
            Some(Instant::now())
        }
    };
    let c = conn.as_mut().expect("opened above");
    c.send(bytes)?;
    let sent = Instant::now();
    c.await_first_byte()?;
    let first_byte = Instant::now();
    let response = c.recv()?;
    let done = Instant::now();
    Ok(Exchange {
        response,
        start,
        connected,
        sent,
        first_byte,
        done,
    })
}
