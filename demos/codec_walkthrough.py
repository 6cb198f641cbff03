"""Encode a block against a seed-regenerated codebook and replay the decode.

The two ends share only (seed, n, alphabet, mode): codewords are never stored.
The encoder scans draws until one lands inside the distortion sphere, sends
that index with a self-delimiting integer code, and falls back to an escaped
verbatim copy when the scan budget runs out. The decoder replays the same
stream. A container file carries the shared parameters plus the messages.
"""
import io
import math
from fractions import Fraction

from unirdc import (
    BINARY,
    Alphabet,
    CodebookStream,
    decode,
    distortion,
    encode,
    hamming,
    index_code_encode,
    index_length_terms,
    read_container,
    sphere_mass,
    build_universal_table,
    write_container,
)

HAMMING = hamming(BINARY)


def main() -> None:
    ab = Alphabet("01")
    n, level = 8, Fraction(1, 4)
    x = ab.to_block("01100111")
    stream = CodebookStream(seed=2024, n=n, alphabet_size=2)

    msg = encode(x, level, HAMMING, stream)
    xhat = decode(msg, stream)
    dist = distortion(x, xhat, HAMMING)
    print(f"source     {ab.to_text(x)}")
    print(f"reproduced {ab.to_text(xhat)}  (distortion {dist} <= budget {n * level})")
    print(
        f"message: index {msg.index}, escape={msg.escape}, "
        f"{msg.to_bits().length} bits on the wire"
    )
    print(f"index codeword: {msg.payload.to_text()}")

    table = build_universal_table(n, 2)
    mass = sphere_mass(x, level, HAMMING, table)
    normalizer, log_term = index_length_terms(n, 2.0)
    bits = math.log2(msg.index) + normalizer
    print(
        f"sphere mass {mass.mass} -> success per draw; expected index about "
        f"{float(1 / mass.mass):.1f}, got {msg.index}"
    )
    print(
        f"advisory length for this index: {bits:.2f} bits "
        f"(log2 i + normalizer term {normalizer:.2f}), "
        f"decomposed ceiling {math.log2(msg.index) + math.log2(n) + log_term:.2f} "
        f"(log2 i + log2 n + decomposed-bound constant {log_term:.2f})"
    )

    print("\nindex law across 12 independent codebooks (same source block):")
    indices = []
    for seed in range(12):
        m = encode(x, level, HAMMING, CodebookStream(seed=seed, n=n, alphabet_size=2))
        indices.append(m.index)
    print("  " + " ".join(str(i) for i in indices))

    # a zero budget with a tiny scan cap forces the verbatim escape path
    tight = CodebookStream(seed=2024, n=n, alphabet_size=2, max_draws=4)
    esc = encode(x, Fraction(0), HAMMING, tight)
    back = decode(esc, tight)
    print(
        f"\nescape path: budget 0, cap 4 draws -> escape={esc.escape}, "
        f"witness decodes to {ab.to_text(back)} (exact copy)"
    )

    buf = io.BytesIO()
    blocks = [ab.to_block(t) for t in ("00000000", "01100111", "11111111", "10100101")]
    messages = [encode(b, level, HAMMING, stream) for b in blocks]
    write_container(buf, stream, level, messages)
    raw = buf.getvalue()
    buf.seek(0)
    header, decoded_msgs = read_container(buf)
    print(
        f"\ncontainer: {len(raw)} bytes for {len(messages)} messages "
        f"(header n={header.n}, K={header.alphabet_size}, seed={header.seed})"
    )
    replay = CodebookStream(seed=header.seed, n=header.n, alphabet_size=header.alphabet_size,
                            mode=header.mode, length_mode=header.length_mode)
    for b, m in zip(blocks, decoded_msgs):
        out = decode(m, replay)
        d = distortion(b, out, HAMMING)
        print(f"  {ab.to_text(b)} -> {ab.to_text(out)}  distortion {d}")


if __name__ == "__main__":
    main()
