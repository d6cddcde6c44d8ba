//! A keep-alive HTTP/1.1 client over loopback, enough for the server's
//! `Content-Length`-framed responses.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};

pub struct Conn {
    addr: SocketAddr,
    io: Option<(TcpStream, BufReader<TcpStream>)>,
}

impl Conn {
    pub fn new(addr: SocketAddr) -> Conn {
        Conn { addr, io: None }
    }

    fn stream(&mut self) -> io::Result<&mut (TcpStream, BufReader<TcpStream>)> {
        if self.io.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_nodelay(true)?;
            let reader = BufReader::new(stream.try_clone()?);
            self.io = Some((stream, reader));
        }
        Ok(self.io.as_mut().expect("connected above"))
    }

    /// Sends one request and reads the response: `(status, body)`. On an
    /// I/O error the connection is dropped and the next call reconnects.
    pub fn request(&mut self, method: &str, path: &str, body: &str) -> io::Result<(u16, String)> {
        let result = self.exchange(method, path, body);
        if result.is_err() {
            self.io = None;
        }
        result
    }

    fn exchange(&mut self, method: &str, path: &str, body: &str) -> io::Result<(u16, String)> {
        let (stream, reader) = self.stream()?;
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n",
            body.len()
        );
        let mut wire = head.into_bytes();
        wire.extend_from_slice(body.as_bytes());
        stream.write_all(&wire)?;

        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed"));
        }
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, format!("bad status line {line:?}")))?;
        let mut length = 0usize;
        let mut close = false;
        loop {
            line.clear();
            if reader.read_line(&mut line)? == 0 {
                return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed"));
            }
            let header = line.trim();
            if header.is_empty() {
                break;
            }
            let lower = header.to_ascii_lowercase();
            if let Some(v) = lower.strip_prefix("content-length:") {
                length = v.trim().parse().map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "content-length"))?;
            } else if lower.starts_with("connection:") && lower.contains("close") {
                close = true;
            }
        }
        let mut body = vec![0u8; length];
        reader.read_exact(&mut body)?;
        if close {
            self.io = None;
        }
        let body = String::from_utf8(body).map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "body is not UTF-8"))?;
        Ok((status, body))
    }
}
