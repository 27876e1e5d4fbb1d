//! Launching and stopping the shipped `fews listen` / `fews router`
//! processes.

use crate::workload::Spec;
use fews_net::{Client, ClientOptions};
use std::io::{BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Timeout on every benchmark connection: a wedged server fails the run
/// instead of hanging it.
pub const IO_TIMEOUT: Duration = Duration::from_secs(30);

pub fn client_opts() -> ClientOptions {
    ClientOptions::bounded(IO_TIMEOUT, 0)
}

pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
    Client::connect_with(addr, &client_opts())
}

/// One running serving process. Dropping it kills and reaps the process.
pub struct Proc {
    child: Child,
    pub addr: SocketAddr,
    drain: Option<JoinHandle<()>>,
}

impl Proc {
    /// Start `fews <args>` and wait until it prints `<marker> ADDR`.
    fn spawn(fews: &Path, args: &[String], marker: &str, log: &Path) -> std::io::Result<Proc> {
        let err_log = std::fs::File::create(log)?;
        let mut child = Command::new(fews)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::from(err_log))
            .spawn()?;
        let mut lines = BufReader::new(child.stdout.take().expect("piped stdout")).lines();
        let addr = loop {
            match lines.next() {
                Some(Ok(line)) => {
                    if let Some(rest) = line.strip_prefix(marker) {
                        let word = rest.split_whitespace().next().unwrap_or_default();
                        break word.parse::<SocketAddr>().map_err(|e| {
                            std::io::Error::other(format!("bad address in {line:?}: {e}"))
                        });
                    }
                }
                _ => {
                    break Err(std::io::Error::other(format!(
                        "fews {} exited before printing {marker:?}; see {}",
                        args[0],
                        log.display()
                    )))
                }
            }
        };
        let addr = match addr {
            Ok(addr) => addr,
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(e);
            }
        };
        // Keep draining stdout so the process never blocks on a full pipe.
        let mut out_log = std::fs::OpenOptions::new().append(true).open(log)?;
        let drain = std::thread::spawn(move || {
            for line in lines.map_while(Result::ok) {
                let _ = writeln!(out_log, "{line}");
            }
        });
        Ok(Proc {
            child,
            addr,
            drain: Some(drain),
        })
    }

    /// Wait for the process to exit on its own, killing it after `grace`.
    fn reap(&mut self, grace: Duration) {
        let deadline = Instant::now() + grace;
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    break;
                }
            }
        }
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        self.reap(Duration::ZERO);
    }
}

/// The serving processes of one workload: a durable node, or a durable
/// router over two memory-only workers.
pub struct Topology {
    /// The address the load generator talks to.
    pub front: SocketAddr,
    /// Routed topologies only: the worker processes, first to last.
    pub workers: Vec<SocketAddr>,
    procs: Vec<Proc>,
}

pub struct Launcher {
    pub fews: PathBuf,
    pub work: PathBuf,
    launches: u32,
}

impl Launcher {
    pub fn new(fews: PathBuf, work: PathBuf) -> Launcher {
        Launcher {
            fews,
            work,
            launches: 0,
        }
    }

    fn log_path(&mut self, what: &str) -> PathBuf {
        self.launches += 1;
        self.work.join(format!("{what}-{}.log", self.launches))
    }

    pub fn listen(&mut self, spec: &Spec, data_dir: Option<&Path>) -> std::io::Result<Proc> {
        let mut args: Vec<String> = vec!["listen".into(), "--addr".into(), "127.0.0.1:0".into()];
        args.extend(spec.model.cli_args());
        if let Some(dir) = data_dir {
            args.extend(["--data-dir".into(), dir.display().to_string()]);
        }
        let log = self.log_path("listen");
        Proc::spawn(&self.fews, &args, "listening on ", &log)
    }

    pub fn router(
        &mut self,
        spec: &Spec,
        workers: &[SocketAddr],
        data_dir: Option<&Path>,
    ) -> std::io::Result<Proc> {
        let list: Vec<String> = workers.iter().map(|w| w.to_string()).collect();
        let mut args: Vec<String> = vec![
            "router".into(),
            "--addr".into(),
            "127.0.0.1:0".into(),
            "--workers".into(),
            list.join(","),
        ];
        args.extend(spec.model.cli_args());
        if let Some(dir) = data_dir {
            args.extend(["--data-dir".into(), dir.display().to_string()]);
        }
        let log = self.log_path("router");
        Proc::spawn(&self.fews, &args, "routing on ", &log)
    }

    /// Launch the workload's topology over `data_dir`: a node, or a router
    /// over two fresh memory-only workers.
    pub fn launch(&mut self, spec: &Spec, data_dir: Option<&Path>) -> std::io::Result<Topology> {
        if !spec.routed {
            let node = self.listen(spec, data_dir)?;
            return Ok(Topology {
                front: node.addr,
                workers: Vec::new(),
                procs: vec![node],
            });
        }
        let mut procs = vec![self.listen(spec, None)?, self.listen(spec, None)?];
        let workers: Vec<SocketAddr> = procs.iter().map(|p| p.addr).collect();
        let router = self.router(spec, &workers, data_dir)?;
        let front = router.addr;
        procs.push(router);
        Ok(Topology {
            front,
            workers,
            procs,
        })
    }
}

impl Topology {
    /// Ask the front process to shut down (a router forwards it to its
    /// workers) and reap every process, killing any that lingers.
    pub fn stop(mut self) {
        if let Ok(mut c) = connect(self.front) {
            let _ = c.shutdown();
        }
        for p in self.procs.iter_mut().rev() {
            p.reap(Duration::from_secs(20));
        }
    }
}

/// Copy a directory tree (the prepared base state) to a fresh location.
pub fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), target)?;
        }
    }
    Ok(())
}

pub fn fresh_dir(path: &Path) -> std::io::Result<()> {
    if path.exists() {
        std::fs::remove_dir_all(path)?;
    }
    std::fs::create_dir_all(path)
}
