fn main() {
    use nvm_traces::{Fingerprint, Trace};
    let t0 = std::time::Instant::now();
    let mut f = Fingerprint::new(3);
    let keys = f.take_keys(2000);
    println!(
        "2000 fingerprint keys in {:?}, first={:02x?}",
        t0.elapsed(),
        &keys[0][..4]
    );
}
