//! The benchmark's own HTTP/1.1 client: request encoding, response
//! framing over a byte stream (so pipelined responses can be read back in
//! order), and bit-exact checking of every answer.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::ops::Range;
use std::time::Duration;

/// Encodes `POST path` with a JSON body.
pub fn post(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Encodes `GET path`.
pub fn get(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n").into_bytes()
}

/// One framed response at the front of a buffer.
#[derive(Debug, Clone, PartialEq)]
pub struct Framed {
    /// HTTP status code.
    pub status: u16,
    /// Body position within the parsed buffer.
    pub body: Range<usize>,
    /// Bytes the whole response occupies.
    pub len: usize,
}

/// Frames the response at the front of `buf`: `Ok(None)` when more bytes
/// are needed. Only `Content-Length` framing is accepted, which is all
/// the server sends.
pub fn frame(buf: &[u8]) -> Result<Option<Framed>, String> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        if buf.len() > 16 * 1024 {
            return Err("response head exceeds 16 KiB".into());
        }
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| "head is not UTF-8")?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or_default();
    let status = status_line
        .strip_prefix("HTTP/1.1 ")
        .and_then(|s| s.get(..3))
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| format!("bad status line `{status_line}`"))?;
    let length = lines
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.trim().eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse::<usize>().ok())
        .ok_or("response has no Content-Length")?;
    let start = head_end + 4;
    if buf.len() < start + length {
        return Ok(None);
    }
    Ok(Some(Framed { status, body: start..start + length, len: start + length }))
}

/// Reads framed responses one after another off a stream, keeping any
/// bytes of later responses for the next call.
#[derive(Debug, Default)]
pub struct ResponseReader {
    buf: Vec<u8>,
    start: usize,
}

impl ResponseReader {
    /// The next response's status and body range (valid for
    /// [`ResponseReader::body`] until the next call).
    pub fn next(&mut self, r: &mut impl Read) -> io::Result<(u16, Range<usize>)> {
        loop {
            match frame(&self.buf[self.start..]) {
                Ok(Some(f)) => {
                    let base = self.start;
                    self.start += f.len;
                    return Ok((f.status, base + f.body.start..base + f.body.end));
                }
                Ok(None) => {}
                Err(e) => return Err(io::Error::new(io::ErrorKind::InvalidData, e)),
            }
            if self.start > 0 {
                self.buf.drain(..self.start);
                self.start = 0;
            }
            let len = self.buf.len();
            self.buf.resize(len + 64 * 1024, 0);
            let n = r.read(&mut self.buf[len..])?;
            self.buf.truncate(len + n);
            if n == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
        }
    }

    /// A body range returned by [`ResponseReader::next`].
    pub fn body(&self, range: Range<usize>) -> &[u8] {
        &self.buf[range]
    }
}

/// What a request sent on a connection must be answered with.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Expect {
    /// A predict of pool input `i`: 200 with the reference output bits.
    Predict(usize),
    /// A model reload: 200 with `"status":"reloaded"`.
    Reload,
}

/// The `"output"` array of a predict response body.
fn output_values(body: &[u8]) -> Option<Vec<f32>> {
    pecan_serve::json::array_field(std::str::from_utf8(body).ok()?, "output").ok()
}

/// True when `got` has the same length and the same bits as `want`.
pub fn bits_equal(got: &[f32], want: &[f32]) -> bool {
    got.len() == want.len() && got.iter().zip(want).all(|(a, b)| a.to_bits() == b.to_bits())
}

/// Whether a response answers `expect` correctly, against the reference
/// outputs `refs`. A wrong status, an unparsable body, a wrong output
/// length or any differing bit is a failure.
pub fn answer_ok(expect: Expect, status: u16, body: &[u8], refs: &[Vec<f32>]) -> bool {
    if status != 200 {
        return false;
    }
    match expect {
        Expect::Predict(i) => output_values(body).is_some_and(|v| bits_equal(&v, &refs[i])),
        Expect::Reload => {
            let marker = b"\"status\":\"reloaded\"";
            body.windows(marker.len()).any(|w| w == marker)
        }
    }
}

/// A keep-alive connection for one-at-a-time calls.
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    reader: ResponseReader,
}

impl Conn {
    /// Connects with `TCP_NODELAY` and a generous read timeout.
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Conn { stream, reader: ResponseReader::default() })
    }

    /// Sends pre-encoded request bytes and reads the response.
    pub fn call_raw(&mut self, request: &[u8]) -> io::Result<(u16, Vec<u8>)> {
        self.stream.write_all(request)?;
        let (status, body) = self.reader.next(&mut self.stream)?;
        Ok((status, self.reader.body(body).to_vec()))
    }

    /// Sends a request and checks the answer against `expect`.
    pub fn call_checked(
        &mut self,
        request: &[u8],
        expect: Expect,
        refs: &[Vec<f32>],
    ) -> io::Result<bool> {
        self.stream.write_all(request)?;
        let (status, body) = self.reader.next(&mut self.stream)?;
        Ok(answer_ok(expect, status, self.reader.body(body), refs))
    }

    /// The underlying stream (for split reader/writer use).
    pub fn into_parts(self) -> (TcpStream, ResponseReader) {
        (self.stream, self.reader)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pecan_serve::json::format_f32_array;
    use std::collections::VecDeque;

    fn response(status: u16, body: &str) -> Vec<u8> {
        format!(
            "HTTP/1.1 {status} X\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\
             Connection: keep-alive\r\n\r\n{body}",
            body.len()
        )
        .into_bytes()
    }

    /// A reader handing out at most `step` bytes per read.
    struct Trickle {
        data: Vec<u8>,
        at: usize,
        step: usize,
    }

    impl Read for Trickle {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            let n = self.step.min(out.len()).min(self.data.len() - self.at);
            out[..n].copy_from_slice(&self.data[self.at..self.at + n]);
            self.at += n;
            Ok(n)
        }
    }

    fn refs() -> Vec<Vec<f32>> {
        vec![vec![1.5, -0.25], vec![0.1, 3.0e-7]]
    }

    fn predict_body(v: &[f32]) -> String {
        format!("{{\"output\":{},\"latency_us\":12,\"batch_size\":3}}", format_f32_array(v))
    }

    /// Reads every response of `stream` in order against a FIFO of sent
    /// requests, as the pipelined client does; returns per-request verdicts.
    fn settle(stream: Vec<u8>, sent: &[Expect], step: usize) -> Vec<bool> {
        let refs = refs();
        let mut pending: VecDeque<Expect> = sent.iter().copied().collect();
        let mut src = Trickle { data: stream, at: 0, step };
        let mut reader = ResponseReader::default();
        let mut verdicts = Vec::new();
        while let Some(expect) = pending.pop_front() {
            let (status, body) = reader.next(&mut src).unwrap();
            verdicts.push(answer_ok(expect, status, reader.body(body), &refs));
        }
        verdicts
    }

    #[test]
    fn pipelined_responses_match_in_order_with_a_reload_among_predicts() {
        let r = refs();
        let mut stream = response(200, &predict_body(&r[0]));
        stream.extend(response(200, "{\"status\":\"reloaded\",\"model\":\"mlp\",\"version\":2}"));
        stream.extend(response(200, &predict_body(&r[1])));
        stream.extend(response(200, &predict_body(&r[0])));
        let sent = [Expect::Predict(0), Expect::Reload, Expect::Predict(1), Expect::Predict(0)];
        for step in [1, 7, 64, 1 << 20] {
            assert_eq!(settle(stream.clone(), &sent, step), vec![true; 4], "step {step}");
        }
        // Sent in another order than answered: the reload response lands
        // where a predict was expected and vice versa, and both fail.
        let swapped = [Expect::Reload, Expect::Predict(0), Expect::Predict(1), Expect::Predict(0)];
        assert_eq!(settle(stream, &swapped, 13), vec![false, false, true, true]);
    }

    #[test]
    fn answers_fail_on_status_length_or_any_differing_bit() {
        let r = refs();
        let ok = predict_body(&r[1]);
        assert!(answer_ok(Expect::Predict(1), 200, ok.as_bytes(), &r));
        assert!(!answer_ok(Expect::Predict(1), 503, ok.as_bytes(), &r));
        assert!(!answer_ok(Expect::Predict(0), 200, ok.as_bytes(), &r));
        let short = predict_body(&r[1][..1]);
        assert!(!answer_ok(Expect::Predict(1), 200, short.as_bytes(), &r));
        let one_ulp = f32::from_bits(r[1][1].to_bits() + 1);
        let off = predict_body(&[r[1][0], one_ulp]);
        assert!(!answer_ok(Expect::Predict(1), 200, off.as_bytes(), &r));
        assert!(!answer_ok(Expect::Predict(1), 200, b"{\"error\":\"x\"}", &r));
        assert!(!answer_ok(Expect::Reload, 200, b"{\"error\":\"x\"}", &r));
        // -0.0 and 0.0 differ in bits.
        assert!(!bits_equal(&[-0.0], &[0.0]));
    }

    #[test]
    fn framing_waits_for_whole_bodies_and_rejects_bad_heads() {
        let whole = response(200, "{\"a\":1}");
        for cut in 0..whole.len() {
            assert_eq!(frame(&whole[..cut]), Ok(None), "cut {cut}");
        }
        let f = frame(&whole).unwrap().unwrap();
        assert_eq!((f.status, &whole[f.body.clone()], f.len), (200, &b"{\"a\":1}"[..], whole.len()));
        assert!(frame(b"HTTP/1.1 200 OK\r\n\r\n").is_err());
        assert!(frame(b"SPDY 200\r\nContent-Length: 0\r\n\r\n").is_err());
    }
}
