//! The workspace's one HTTP client: a blocking keep-alive connection.
//!
//! Tests, examples and the load generator (`nagano_bench::loadgen`) all
//! speak HTTP through [`HttpClient`]. Every request goes out on one send
//! path, so all methods share the same framing, the same error mapping
//! and the same recovery when the server has closed an idle connection.

use std::io::{BufReader, BufWriter, ErrorKind, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use bytes::Bytes;

use crate::http::{read_response_full, ParseError};

/// A blocking keep-alive HTTP client.
pub struct HttpClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    addr: SocketAddr,
    reconnects: u64,
}

fn open(addr: SocketAddr) -> std::io::Result<(BufReader<TcpStream>, BufWriter<TcpStream>)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    let read_half = stream.try_clone()?;
    Ok((BufReader::new(read_half), BufWriter::new(stream)))
}

impl HttpClient {
    /// Connect to a server.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let (reader, writer) = open(addr)?;
        Ok(HttpClient {
            reader,
            writer,
            addr,
            reconnects: 0,
        })
    }

    /// The server address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Drop the current connection and open a fresh one to the same
    /// server.
    pub fn reconnect(&mut self) -> std::io::Result<()> {
        (self.reader, self.writer) = open(self.addr)?;
        self.reconnects += 1;
        Ok(())
    }

    /// Connections reopened so far, by [`reconnect`](Self::reconnect) or
    /// transparently after an idle close.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// Issue a GET; returns (status, body).
    pub fn get(&mut self, path: &str) -> std::io::Result<(u16, Bytes)> {
        self.request("GET", path)
    }

    /// Issue a request with an arbitrary method; returns (status, body).
    pub fn request(&mut self, method: &str, path: &str) -> std::io::Result<(u16, Bytes)> {
        let (code, body, _) = self.send(method, path, None)?;
        Ok((code, body))
    }

    /// Conditional GET: sends `If-None-Match` when a validator is known.
    /// Returns `(status, body, etag)` — status 304 with an empty body when
    /// the cached representation is still fresh.
    pub fn get_conditional(
        &mut self,
        path: &str,
        etag: Option<&str>,
    ) -> std::io::Result<(u16, Bytes, Option<String>)> {
        self.send("GET", path, etag)
    }

    /// The one send path. When the server has closed the idle keep-alive
    /// connection, the read hits end-of-stream before any response; the
    /// client then reconnects and sends the request once more.
    fn send(
        &mut self,
        method: &str,
        path: &str,
        etag: Option<&str>,
    ) -> std::io::Result<(u16, Bytes, Option<String>)> {
        match self.round_trip(method, path, etag) {
            Err(e) if e.kind() == ErrorKind::UnexpectedEof => {
                self.reconnect()?;
                self.round_trip(method, path, etag)
            }
            r => r,
        }
    }

    fn round_trip(
        &mut self,
        method: &str,
        path: &str,
        etag: Option<&str>,
    ) -> std::io::Result<(u16, Bytes, Option<String>)> {
        write!(
            self.writer,
            "{method} {path} HTTP/1.1\r\nHost: nagano\r\nConnection: keep-alive\r\n"
        )?;
        if let Some(tag) = etag {
            write!(self.writer, "If-None-Match: {tag}\r\n")?;
        }
        self.writer.write_all(b"\r\n")?;
        self.writer.flush()?;
        read_response_full(&mut self.reader).map_err(|e| match e {
            ParseError::Io(e) => e,
            ParseError::ConnectionClosed => {
                std::io::Error::new(ErrorKind::UnexpectedEof, "server closed connection")
            }
            ParseError::Malformed(m) => std::io::Error::new(ErrorKind::InvalidData, m),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use crate::http::{Request, Response};
    use crate::server::{Handler, Server, ServerConfig};

    #[test]
    fn every_method_survives_an_idle_close() {
        let handler: Arc<dyn Handler> = Arc::new(|req: &Request| {
            let etag = "\"v1\"".to_string();
            if req.if_none_match.as_deref() == Some(etag.as_str()) {
                Response::not_modified(etag)
            } else {
                Response::html(Bytes::from_static(b"<html>ok</html>")).with_etag(etag)
            }
        });
        let server = Server::bind(
            "127.0.0.1:0",
            handler,
            ServerConfig {
                read_timeout: Duration::from_millis(100),
                ..Default::default()
            },
        )
        .unwrap();
        let idle = || std::thread::sleep(Duration::from_millis(400));
        let mut client = HttpClient::connect(server.addr()).unwrap();

        let (code, _, etag) = client.get_conditional("/a", None).unwrap();
        assert_eq!(code, 200);
        assert_eq!(etag.as_deref(), Some("\"v1\""));
        idle();
        let (code, body, _) = client.get_conditional("/a", etag.as_deref()).unwrap();
        assert_eq!((code, body.len()), (304, 0));
        assert_eq!(client.reconnects(), 1);

        idle();
        let (code, body) = client.get("/a").unwrap();
        assert_eq!((code, &body[..]), (200, &b"<html>ok</html>"[..]));
        assert_eq!(client.reconnects(), 2);
        server.shutdown();
    }
}
