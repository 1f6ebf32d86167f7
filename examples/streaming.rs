//! Microphone-style streaming recognition on the shared runtime: two
//! concurrent mics, raw audio in, words out.
//!
//! A *serving* deployment hears many audio streams at once. This example
//! runs two microphone threads against **one** [`AsrRuntime`]: the
//! runtime handle is cloned into each thread (an `Arc` bump), and every
//! command opens an owned [`Session`] — `Send + 'static`, no pipeline
//! borrow — so each connection drives its own recognition while sharing
//! the runtime's scratch pool, front-end pool, and fork-join executor
//! (one list of pending jobs whose chunks the lanes claim). Per command:
//!
//! * samples arrive in 10 ms packets (160 samples at 16 kHz), exactly as
//!   a microphone driver would deliver them;
//! * packets flow into the session via `push_samples`: the pooled online
//!   front-end fills the session's double-buffered row pair — the
//!   software image of the paper's GPU filling the Acoustic Likelihood
//!   Buffer — and, on a multi-lane runtime, each new frame's scoring runs
//!   as a chunk an executor lane claims while the search relaxes the
//!   previous row (Section VI pipelining);
//! * a partial hypothesis is read every 10 packets;
//! * at the command's end the session finalizes with the batch decoder's
//!   end-of-utterance semantics: the transcript is byte-identical to
//!   batch-recognizing the same audio.
//!
//! The example exits with an error unless every command decodes to its
//! words.
//!
//! ```text
//! cargo run --release --example streaming
//! ```
//!
//! [`AsrRuntime`]: asr_repro::runtime::AsrRuntime
//! [`Session`]: asr_repro::runtime::Session

use asr_repro::runtime::AsrRuntime;

/// Samples per packet: one 10 ms frame, the microphone-driver granularity.
const PACKET: usize = 160;

/// One microphone: streams each command in packets through its own owned
/// session and returns the transcripts. Runs on its own thread; `runtime`
/// is a cheap clone of the shared handle.
fn run_mic(
    runtime: AsrRuntime,
    mic: &str,
    commands: Vec<Vec<&str>>,
) -> Result<Vec<String>, Box<dyn std::error::Error + Send + Sync>> {
    let mut decoded = Vec::new();
    for cmd in &commands {
        let samples = runtime.render_words(cmd)?.samples;
        println!(
            "[{mic}] {cmd:?}: {:.2} s of audio in {PACKET}-sample packets",
            samples.len() as f64 / 16_000.0
        );
        let mut session = runtime.open_session();
        for (i, packet) in samples.chunks(PACKET).enumerate() {
            session.push_samples(packet);
            if (i + 1).is_multiple_of(10) {
                if let Some(partial) = session.partial() {
                    println!(
                        "[{mic}]     after {:>3} frames: {:?} (cost {:.2})",
                        partial.frames_decoded, partial.words, partial.cost
                    );
                }
            }
        }
        let transcript = session.finalize();
        println!(
            "[{mic}]     final: {:?} (cost {:.2}, reached final: {})",
            transcript.words, transcript.cost, transcript.reached_final
        );
        decoded.push(transcript.words.join(" "));
    }
    Ok(decoded)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // One runtime serves every microphone: shared graph, shared pools,
    // shared executor.
    let runtime = AsrRuntime::demo()?;
    let mic_a_commands: Vec<Vec<&str>> = vec![
        vec!["lights", "on"],
        vec!["play", "music"],
        vec!["call", "mom"],
    ];
    let mic_b_commands: Vec<Vec<&str>> =
        vec![vec!["stop"], vec!["lights", "off"], vec!["go", "home"]];

    println!(
        "one runtime ({} executor lane(s)), two concurrent microphone threads\n",
        runtime.lanes()
    );

    // Each mic is a plain spawned thread holding a clone of the runtime
    // handle; the sessions it opens are owned and Send.
    let handle_a = {
        let runtime = runtime.clone();
        let commands = mic_a_commands.clone();
        std::thread::spawn(move || run_mic(runtime, "mic-A", commands))
    };
    let handle_b = {
        let runtime = runtime.clone();
        let commands = mic_b_commands.clone();
        std::thread::spawn(move || run_mic(runtime, "mic-B", commands))
    };
    let decoded_a = handle_a
        .join()
        .expect("mic-A thread")
        .map_err(|e| e.to_string())?;
    let decoded_b = handle_b
        .join()
        .expect("mic-B thread")
        .map_err(|e| e.to_string())?;

    let mut correct = 0;
    let mut total = 0;
    for (mic, commands, decoded) in [
        ("mic-A", &mic_a_commands, &decoded_a),
        ("mic-B", &mic_b_commands, &decoded_b),
    ] {
        let expected: Vec<String> = commands.iter().map(|c| c.join(" ")).collect();
        println!("\n[{mic}] expected: {expected:?}");
        println!("[{mic}] decoded:  {decoded:?}");
        correct += decoded
            .iter()
            .zip(&expected)
            .filter(|(d, e)| d == e)
            .count();
        total += expected.len();
    }
    let stats = runtime.scratch_pool().stats();
    println!(
        "\n{correct}/{total} commands correct across both mics; scratch pool: \
         {} cold / {} warm checkouts, {} idle",
        stats.cold_checkouts,
        stats.warm_checkouts,
        runtime.scratch_pool().idle()
    );
    if correct != total {
        return Err(format!("{} of {total} commands misrecognized", total - correct).into());
    }
    Ok(())
}
