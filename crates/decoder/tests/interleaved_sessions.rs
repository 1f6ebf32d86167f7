//! Interleaving suite: decodes that share a thread share its state index
//! (the search's one graph-sized table), and nothing may leak between
//! them through it.
//!
//! Each of two threads steps 16 streaming decodes round-robin, one frame
//! each in turn, over two graphs of different sizes: the small graph's
//! decodes start first and the large graph's join later, so the shared
//! index grows mid-run. Half of the decodes are constructed wide and
//! retuned with `set_search_params` before every row. Every decode must
//! equal the batch decoder on its rows, the `HashMap` reference decoder on
//! the same rows, and the same streaming decode run alone, on `words`,
//! `cost`, `best_state` and `reached_final`.

use asr_acoustic::scores::AcousticTable;
use asr_decoder::reference::ReferenceDecoder;
use asr_decoder::search::{DecodeOptions, DecodeResult, DecodeScratch, ViterbiDecoder};
use asr_decoder::stream::StreamingDecode;
use asr_wfst::synth::{SynthConfig, SynthWfst};
use asr_wfst::Wfst;

/// Decodes per thread; the first half on the small graph.
const DECODES: usize = 16;
/// Round at which the large graph's decodes join.
const LATE_START: usize = 6;

/// One utterance: its graph, rows, options, and whether it is retuned.
struct Job<'g> {
    wfst: &'g Wfst,
    scores: AcousticTable,
    opts: DecodeOptions,
    retuned: bool,
    start: usize,
}

impl Job<'_> {
    /// Opens the decode: constructed wide when retuned, so only the
    /// retuning before each row makes it the decode `opts` describes.
    fn open(&self) -> StreamingDecode<&Wfst> {
        let opts = if self.retuned {
            DecodeOptions::with_beam(self.opts.beam * 2.0)
        } else {
            self.opts.clone()
        };
        StreamingDecode::new(self.wfst, opts, DecodeScratch::new(self.wfst.num_states()))
    }

    fn retune(&self, decode: &mut StreamingDecode<&Wfst>) {
        if self.retuned {
            decode.set_search_params(self.opts.beam, self.opts.max_active);
        }
    }

    /// The decode on its own: every row but the last stepped, the last
    /// one finished.
    fn alone(&self) -> DecodeResult {
        let mut decode = self.open();
        let frames = self.scores.num_frames();
        for frame in 0..frames - 1 {
            self.retune(&mut decode);
            decode.step(self.scores.frame_row(frame));
        }
        self.retune(&mut decode);
        decode.finish(Some(self.scores.frame_row(frames - 1))).0
    }
}

/// A thread's 16 jobs, `seed` apart from the other thread's.
fn jobs<'g>(small: &'g Wfst, large: &'g Wfst, seed: u64) -> Vec<Job<'g>> {
    (0..DECODES)
        .map(|i| {
            let late = i >= DECODES / 2;
            let wfst = if late { large } else { small };
            let frames = 16 + (i * 7) % 11;
            let scores = AcousticTable::random(
                frames,
                wfst.num_phones() as usize,
                (0.5, 4.0),
                seed * 100 + i as u64,
            );
            let opts = DecodeOptions {
                max_active: [None, Some(64), Some(300)][i % 3],
                lattice_gc_interval: Some(4 + (i % 4) as u32),
                ..DecodeOptions::with_beam(if i % 4 < 2 { 6.0 } else { 7.5 })
            };
            Job {
                wfst,
                scores,
                opts,
                retuned: i % 2 == 1,
                start: if late { LATE_START } else { i % 3 },
            }
        })
        .collect()
}

/// Steps every job round-robin on this thread: in round `r` each job that
/// has started consumes its next row, the last one through `finish`.
fn interleaved(jobs: &[Job]) -> Vec<DecodeResult> {
    let mut open: Vec<Option<StreamingDecode<&Wfst>>> = jobs.iter().map(|_| None).collect();
    let mut done: Vec<Option<DecodeResult>> = jobs.iter().map(|_| None).collect();
    let mut round = 0;
    while done.iter().any(Option::is_none) {
        for (i, job) in jobs.iter().enumerate() {
            if round < job.start || done[i].is_some() {
                continue;
            }
            let decode = open[i].get_or_insert_with(|| job.open());
            let frame = round - job.start;
            job.retune(decode);
            let row = job.scores.frame_row(frame);
            if frame + 1 < job.scores.num_frames() {
                decode.step(row);
            } else {
                done[i] = open[i].take().map(|decode| decode.finish(Some(row)).0);
            }
        }
        round += 1;
    }
    done.into_iter().flatten().collect()
}

fn assert_same(got: &DecodeResult, want: &DecodeResult, what: &str) {
    assert_eq!(got.words, want.words, "{what}: words");
    assert_eq!(got.cost.to_bits(), want.cost.to_bits(), "{what}: cost");
    assert_eq!(got.best_state, want.best_state, "{what}: best_state");
    assert_eq!(
        got.reached_final, want.reached_final,
        "{what}: reached_final"
    );
}

/// Runs one thread's jobs interleaved and checks each against its three
/// oracles.
fn run_and_check(jobs: &[Job], thread: &str) {
    let results = interleaved(jobs);
    assert_eq!(results.len(), jobs.len());
    for (i, (job, got)) in jobs.iter().zip(&results).enumerate() {
        let what = format!(
            "{thread}, decode {i} ({:?}, retuned {})",
            job.opts, job.retuned
        );
        assert_eq!(
            got.stats.frames.len(),
            job.scores.num_frames(),
            "{what}: alive"
        );
        assert!(got.cost.is_finite(), "{what}: cost");
        let alone = job.alone();
        assert_same(got, &alone, &format!("{what} vs alone"));
        assert_eq!(got.stats.frames, alone.stats.frames, "{what}: frame stats");
        assert_eq!(got.lattice.len(), alone.lattice.len(), "{what}: lattice");
        let batch = ViterbiDecoder::new(job.opts.clone()).decode(job.wfst, &job.scores);
        assert_same(got, &batch, &format!("{what} vs batch"));
        let reference = ReferenceDecoder::new(job.opts.clone()).decode(job.wfst, &job.scores);
        assert_same(got, &reference, &format!("{what} vs reference"));
    }
}

#[test]
fn sessions_sharing_a_threads_index_decode_as_if_alone() {
    let graph = |states| SynthWfst::generate(&SynthConfig::with_states(states).with_seed(11));
    let (small, large) = (graph(5_000).unwrap(), graph(50_000).unwrap());
    let (first, second) = (jobs(&small, &large, 1), jobs(&small, &large, 2));
    std::thread::scope(|scope| {
        let other = scope.spawn(|| run_and_check(&second, "second thread"));
        run_and_check(&first, "first thread");
        other.join().expect("second thread");
    });
}
