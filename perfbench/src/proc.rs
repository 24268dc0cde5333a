//! Child processes measured the way a user experiences them: wall time from
//! spawn to exit, CPU time and peak resident memory from the kernel's
//! `wait4` resource usage.

use std::io::{self, Read};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

#[cfg(not(target_os = "linux"))]
compile_error!("perfbench measures through Linux wait4 and /proc");

/// `struct timeval` on 64-bit Linux.
#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals and fourteen longs.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// What one measured child process did.
#[derive(Debug)]
pub struct Outcome {
    pub wall_s: f64,
    /// User plus system time of the child and everything it waited for.
    pub cpu_s: f64,
    pub maxrss_kb: u64,
    /// Exit code; `None` when a signal ended the process.
    pub code: Option<i32>,
    pub stdout: Vec<u8>,
}

impl Outcome {
    pub fn ok(&self) -> bool {
        self.code == Some(0)
    }
}

const WNOHANG: i32 = 1;

/// Reap `pid`, returning its raw wait status and resource usage; with
/// `WNOHANG`, `None` while it still runs.
fn reap(pid: u32, options: i32) -> io::Result<Option<(i32, Rusage)>> {
    let pid = i32::try_from(pid).map_err(|_| io::Error::other("pid out of range"))?;
    let mut status = 0i32;
    let mut ru = Rusage::default();
    loop {
        // SAFETY: `status` and `ru` are live, writable locals with the
        // layout Linux's wait4 writes (`int` and 64-bit `struct rusage`),
        // and `pid` names a child this process spawned and has not reaped.
        let r = unsafe { wait4(pid, &mut status, options, &mut ru) };
        if r == pid {
            return Ok(Some((status, ru)));
        }
        if r == 0 {
            return Ok(None);
        }
        let e = io::Error::last_os_error();
        if e.kind() != io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
}

fn exit_code(status: i32) -> Option<i32> {
    (status & 0x7f == 0).then_some((status >> 8) & 0xff)
}

/// Run `cmd` to completion, capturing its stdout. Stdin is closed; the
/// caller decides where stderr goes.
pub fn measure(cmd: &mut Command) -> io::Result<Outcome> {
    cmd.stdin(Stdio::null()).stdout(Stdio::piped());
    let start = Instant::now();
    let mut child = cmd.spawn()?;
    let mut stdout = Vec::new();
    let read = child
        .stdout
        .take()
        .expect("stdout is piped")
        .read_to_end(&mut stdout);
    let (status, ru) = reap(child.id(), 0)?.expect("a blocking wait4 returns the child");
    let wall_s = start.elapsed().as_secs_f64();
    read?;
    let secs = |t: &Timeval| t.tv_sec as f64 + t.tv_usec as f64 * 1e-6;
    Ok(Outcome {
        wall_s,
        cpu_s: secs(&ru.ru_utime) + secs(&ru.ru_stime),
        maxrss_kb: ru.ru_maxrss.max(0) as u64,
        code: exit_code(status),
        stdout,
    })
}

/// Wait up to `timeout` for a child spawned elsewhere (a server asked to
/// drain) to exit, killing it after that, and return its exit code and
/// peak RSS in KiB. The child is always reaped.
pub fn finish(child: &mut Child, timeout: Duration) -> io::Result<(Option<i32>, u64)> {
    let deadline = Instant::now() + timeout;
    loop {
        if let Some((status, ru)) = reap(child.id(), WNOHANG)? {
            return Ok((exit_code(status), ru.ru_maxrss.max(0) as u64));
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            let (_, ru) = reap(child.id(), 0)?.expect("a blocking wait4 returns the child");
            return Ok((None, ru.ru_maxrss.max(0) as u64));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// CPU seconds a live process has used so far, from `/proc/<pid>/stat`
/// (utime + stime, all threads, in USER_HZ = 100 ticks).
pub fn cpu_so_far(pid: u32) -> io::Result<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
    // The command name may hold spaces; fields resume after its ')'.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or_else(|| io::Error::other("malformed /proc stat"))?;
    let f: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> io::Result<f64> {
        f.get(i)
            .and_then(|v| v.parse::<u64>().ok())
            .map(|t| t as f64 / 100.0)
            .ok_or_else(|| io::Error::other("malformed /proc stat"))
    };
    // Fields 14 and 15 of the whole line; the state (field 3) is index 0.
    Ok(tick(11)? + tick(12)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALLOC_ENV: &str = "PERFBENCH_TEST_ALLOC_MB";

    /// Helper run as a child by the test below: allocates and touches the
    /// number of MiB named in the environment, then exits.
    #[test]
    fn alloc_child() {
        let Some(mb) = std::env::var(ALLOC_ENV)
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
        else {
            return;
        };
        let mut v = vec![0u8; mb * 1024 * 1024];
        for page in v.chunks_mut(4096) {
            page[0] = 1;
        }
        std::hint::black_box(&v);
    }

    #[test]
    fn wait4_reports_a_childs_peak_memory_and_exit_code() {
        let exe = std::env::current_exe().unwrap();
        let run = |mb: u64| {
            measure(
                Command::new(&exe)
                    .args(["--exact", "proc::tests::alloc_child", "--test-threads", "1"])
                    .env(ALLOC_ENV, mb.to_string())
                    .stderr(Stdio::null()),
            )
            .unwrap()
        };
        let small = run(1);
        let big = run(96);
        assert!(small.ok() && big.ok());
        assert!(big.maxrss_kb >= 96 * 1024, "maxrss {} KiB", big.maxrss_kb);
        assert!(big.maxrss_kb >= small.maxrss_kb + 80 * 1024);
        assert!(big.cpu_s > 0.0 && big.wall_s > 0.0);

        let failed = measure(Command::new("sh").args(["-c", "echo hi; exit 3"])).unwrap();
        assert_eq!(failed.code, Some(3));
        assert_eq!(failed.stdout, b"hi\n");
    }

    #[test]
    fn cpu_so_far_reads_this_process() {
        assert!(cpu_so_far(std::process::id()).unwrap() >= 0.0);
    }
}
