//! A keep-alive HTTP/1.1 client with the rules the benchmark depends on:
//!
//! * each request leaves in one `write` (head and body in one buffer) on a
//!   socket with `TCP_NODELAY` set, so the client adds no Nagle delay of its
//!   own;
//! * the connection is reused until the server answers `Connection: close`
//!   (the server's per-connection request cap); only then does the client
//!   reconnect, and it counts each reconnect.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// How long a client waits on one response before the request counts as failed.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// One response. `lines` holds the NDJSON lines of a chunked body, each with
/// the instant its final byte arrived; `body` holds a `Content-Length` body.
#[derive(Debug)]
pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
    pub lines: Vec<(Instant, Vec<u8>)>,
}

#[derive(Debug)]
pub struct Client {
    addr: SocketAddr,
    conn: Option<BufReader<TcpStream>>,
    /// Connections opened after the first one.
    pub reconnects: u64,
    opened: u64,
    buf: Vec<u8>,
}

impl Client {
    pub fn new(addr: SocketAddr) -> Self {
        Self {
            addr,
            conn: None,
            reconnects: 0,
            opened: 0,
            buf: Vec::new(),
        }
    }

    /// Sends one request and reads the whole response.
    pub fn send(
        &mut self,
        method: &str,
        path: &str,
        content_type: &str,
        body: &[u8],
    ) -> io::Result<Response> {
        if self.conn.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(IO_TIMEOUT))?;
            stream.set_write_timeout(Some(IO_TIMEOUT))?;
            if self.opened > 0 {
                self.reconnects += 1;
            }
            self.opened += 1;
            self.conn = Some(BufReader::with_capacity(64 * 1024, stream));
        }
        self.buf.clear();
        self.buf.extend_from_slice(
            format!(
                "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n\r\n",
                body.len()
            )
            .as_bytes(),
        );
        self.buf.extend_from_slice(body);
        let result = self.exchange();
        if !matches!(result, Ok((_, true))) {
            self.conn = None;
        }
        result.map(|(response, _)| response)
    }

    pub fn get(&mut self, path: &str) -> io::Result<Response> {
        self.send("GET", path, "application/json", b"")
    }

    /// Writes the buffered request and reads the response; the flag says
    /// whether the connection stays open.
    fn exchange(&mut self) -> io::Result<(Response, bool)> {
        let conn = self.conn.as_mut().expect("connected above");
        conn.get_mut().write_all(&self.buf)?;

        let mut line = String::new();
        read_line(conn, &mut line)?;
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|code| code.parse().ok())
            .ok_or_else(|| bad(format!("bad status line {line:?}")))?;
        let mut length = None;
        let mut chunked = false;
        let mut keep_alive = true;
        loop {
            read_line(conn, &mut line)?;
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            let Some((name, value)) = header.split_once(':') else {
                return Err(bad(format!("bad header {header:?}")));
            };
            let value = value.trim();
            match name.to_ascii_lowercase().as_str() {
                "content-length" => {
                    length = Some(value.parse().map_err(|_| bad("bad Content-Length"))?)
                }
                "transfer-encoding" => chunked = value.eq_ignore_ascii_case("chunked"),
                "connection" => keep_alive = !value.eq_ignore_ascii_case("close"),
                _ => {}
            }
        }

        let mut response = Response {
            status,
            body: Vec::new(),
            lines: Vec::new(),
        };
        if chunked {
            let mut pending = Vec::new();
            loop {
                read_line(conn, &mut line)?;
                let size = usize::from_str_radix(line.trim(), 16)
                    .map_err(|_| bad(format!("bad chunk size {line:?}")))?;
                let mut chunk = vec![0; size + 2];
                conn.read_exact(&mut chunk)?;
                if size == 0 {
                    break;
                }
                let arrived = Instant::now();
                chunk.truncate(size);
                for byte in chunk {
                    if byte == b'\n' {
                        response.lines.push((arrived, std::mem::take(&mut pending)));
                    } else {
                        pending.push(byte);
                    }
                }
            }
            if !pending.is_empty() {
                response.lines.push((Instant::now(), pending));
            }
        } else {
            let length = length.ok_or_else(|| bad("response without Content-Length"))?;
            response.body = vec![0; length];
            conn.read_exact(&mut response.body)?;
        }
        Ok((response, keep_alive))
    }
}

fn read_line(conn: &mut BufReader<TcpStream>, line: &mut String) -> io::Result<()> {
    line.clear();
    if conn.read_line(line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "server closed the connection",
        ));
    }
    Ok(())
}

fn bad(message: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.into())
}
