//! Host speed, measured between the timed operations of a run.
//!
//! On a shared virtual machine the speed of every process moves with the
//! neighbours' load: the same skeleton build took 0.96 s and 1.5 s a
//! minute apart, and whole 15 s windows ran 30% slow. No statistic of one
//! window removes a slowdown that covers it. So an untraced run also times
//! a fixed probe, `ROUNDTRIPS` loopback TCP round trips to an echo thread
//! of the benchmark's own, and divides each operation's wall time by the
//! host's slowness around it: the mean of the probes just before and just
//! after, over `REFERENCE_ROUNDTRIP`. The result reads as the operation's
//! time on a host where one probe round trip takes 10 µs, this host's
//! median, so normalised times stay near wall times here. Untraced runs
//! are pinned to one CPU, and so are both ends of the probe. The probe is
//! std code inside the benchmark, so a library change moves the operations
//! and never the probe.
//!
//! Of the fixed probes tried (an ALU loop, a pointer chase and a stream
//! over 64 MiB, loopback round trips), round trips followed the slowdowns
//! of every workload as well as or better than the others; README.md has
//! the spreads with and without.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Round trips per probe: about half a millisecond.
const ROUNDTRIPS: usize = 64;
/// The probe round trip of the reference host.
const REFERENCE_ROUNDTRIP: Duration = Duration::from_micros(10);
/// Operations shorter than this share the probes around them.
const PROBE_EVERY: Duration = Duration::from_millis(20);

/// A loopback connection to an echo thread.
struct Probe {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    echo: Option<JoinHandle<()>>,
}

impl Probe {
    fn start() -> io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let echo = std::thread::spawn(move || {
            let Ok((stream, _)) = listener.accept() else {
                return;
            };
            let Ok(read_half) = stream.try_clone() else {
                return;
            };
            let mut reader = BufReader::new(read_half);
            let mut writer = stream;
            let mut line = String::new();
            loop {
                line.clear();
                match reader.read_line(&mut line) {
                    Ok(n) if n > 0 => {
                        if writer.write_all(line.as_bytes()).is_err() {
                            return;
                        }
                    }
                    _ => return,
                }
            }
        });
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        writer.set_read_timeout(Some(Duration::from_secs(10)))?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Probe {
            reader,
            writer,
            echo: Some(echo),
        })
    }

    /// Seconds per round trip, over `ROUNDTRIPS` of them.
    fn sample(&mut self) -> io::Result<f64> {
        let mut line = String::new();
        let t = Instant::now();
        for _ in 0..ROUNDTRIPS {
            self.writer.write_all(b"probe\n")?;
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "probe echo closed",
                ));
            }
        }
        Ok(t.elapsed().as_secs_f64() / ROUNDTRIPS as f64)
    }
}

impl Drop for Probe {
    fn drop(&mut self) {
        let _ = self.writer.shutdown(Shutdown::Both);
        if let Some(echo) = self.echo.take() {
            let _ = echo.join();
        }
    }
}

/// Times of operations, raw and divided by the host's slowness.
#[derive(Debug, Default)]
pub struct Timed {
    /// Wall times, in seconds.
    pub raw: Vec<f64>,
    /// Wall times on the reference host, in seconds.
    pub normalized: Vec<f64>,
    /// Probe round trip over the reference one, per probe interval.
    pub slowness: Vec<f64>,
}

impl Timed {
    pub fn append(&mut self, mut later: Timed) {
        self.raw.append(&mut later.raw);
        self.normalized.append(&mut later.normalized);
        self.slowness.append(&mut later.slowness);
    }
}

/// Records operation times and probes the host between them.
pub struct HostTimer {
    probe: Probe,
    before: f64,
    last: Instant,
    pending: Vec<f64>,
    done: Timed,
}

impl HostTimer {
    pub fn start() -> io::Result<Self> {
        let mut probe = Probe::start()?;
        let before = probe.sample()?;
        Ok(HostTimer {
            probe,
            before,
            last: Instant::now(),
            pending: Vec::new(),
            done: Timed::default(),
        })
    }

    /// Records one operation of `seconds`, probing once `PROBE_EVERY` has
    /// passed since the last probe.
    pub fn record(&mut self, seconds: f64) -> io::Result<()> {
        self.pending.push(seconds);
        if self.last.elapsed() >= PROBE_EVERY {
            self.flush()?;
        }
        Ok(())
    }

    /// Probes now and charges the operations recorded since the last probe
    /// with the mean of the two.
    fn flush(&mut self) -> io::Result<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let after = self.probe.sample()?;
        let slowness = (self.before + after) / 2.0 / REFERENCE_ROUNDTRIP.as_secs_f64();
        for t in self.pending.drain(..) {
            self.done.raw.push(t);
            self.done.normalized.push(t / slowness);
        }
        self.done.slowness.push(slowness);
        self.before = after;
        self.last = Instant::now();
        Ok(())
    }

    /// Flushes and hands over everything recorded so far.
    pub fn take(&mut self) -> io::Result<Timed> {
        self.flush()?;
        Ok(std::mem::take(&mut self.done))
    }

    /// Probes afresh, so that the next operation recorded after untimed
    /// work is charged with the host's state just before it.
    pub fn resume(&mut self) -> io::Result<()> {
        self.flush()?;
        self.before = self.probe.sample()?;
        self.last = Instant::now();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operations_are_divided_by_the_probes_around_them() {
        let mut timer = HostTimer::start().expect("loopback probe");
        timer.record(0.5).expect("probe");
        timer.record(1.0).expect("probe");
        let timed = timer.take().expect("probe");
        assert_eq!(timed.raw, vec![0.5, 1.0]);
        assert_eq!(timed.normalized.len(), 2);
        assert!(matches!(timed.slowness.len(), 1 | 2));
        assert!(timed.slowness.iter().all(|s| *s > 0.0 && s.is_finite()));
        // Each operation is divided by the slowness of an interval it fell in.
        for (raw, normalized) in timed.raw.iter().zip(&timed.normalized) {
            assert!(timed
                .slowness
                .iter()
                .any(|s| (normalized * s - raw).abs() < 1e-12));
        }
        assert!(timer.take().expect("probe").raw.is_empty());
    }
}
