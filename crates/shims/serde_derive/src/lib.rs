//! Empty: no type derives `Serialize` or `Deserialize`. Kept only because `benchmark/Cargo.lock` lists it under `serde`; ROADMAP item B1 (the next change to the benchmark) deletes it and re-locks.
