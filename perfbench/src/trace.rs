//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into the
//! program (no tracing is added inside the program): each has a name,
//! start, end and parent, and the spans of one operation share the
//! operation's id. They stay in memory until the run ends and are then
//! written out as JSON lines.

use std::collections::HashMap;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub op: u64,
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer::with_epoch(Instant::now())
    }

    /// A tracer whose timestamps count from `epoch` (tracers of one run
    /// share it, so their spans merge onto one time line).
    pub fn with_epoch(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, op: u64, parent: Option<usize>, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(Span {
            op,
            id,
            parent,
            name,
            start_us,
            end_us: start_us,
        });
        id
    }

    pub fn end(&mut self, id: usize) {
        self.spans[id].end_us = self.now_us();
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        op: u64,
        parent: Option<usize>,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(op, parent, name);
        let out = f();
        self.end(id);
        out
    }

    /// Self time of every span in ms: its duration minus the part of
    /// its interval that its children cover.
    pub fn self_ms(&self) -> Vec<f64> {
        let mut children: HashMap<usize, Vec<(f64, f64)>> = HashMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start_us, s.end_us));
            }
        }
        self.spans
            .iter()
            .map(|s| {
                let mut kids = children.remove(&s.id).unwrap_or_default();
                kids.sort_by(|a, b| a.0.total_cmp(&b.0));
                let mut covered = 0.0;
                let mut reach = s.start_us;
                for (a, b) in kids {
                    let (a, b) = (a.max(reach), b.min(s.end_us));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end_us - s.start_us - covered) / 1e3
            })
            .collect()
    }

    /// The spans as JSON lines, with their self time.
    fn json_lines(&self) -> String {
        let self_ms = self.self_ms();
        let mut out = String::new();
        for (s, own) in self.spans.iter().zip(self_ms) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"op\":{},\"span\":{},\"parent\":{parent},\"name\":\"{}\",\
                 \"start_us\":{:.1},\"end_us\":{:.1},\"self_ms\":{:.4}}}\n",
                s.op, s.id, s.name, s.start_us, s.end_us, own
            ));
        }
        out
    }

    /// Writes the spans as JSON lines to
    /// `perfbench/out/spans-<workload>-seed<seed>.jsonl`.
    pub fn write(&self, workload: &str, seed: u64) {
        let dir = std::path::Path::new("perfbench/out");
        let path = dir.join(format!("spans-{workload}-seed{seed}.jsonl"));
        match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, self.json_lines())) {
            Ok(()) => println!("spans: {} lines in {}", self.spans.len(), path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }
}
