"""Byte pins on the CLI's standard output.

Each case maps an argv to the exit code and the sha256 of the stdout it
produced while the verification logic still lived in the CLI, before it
moved into the library.  Any changed byte of a report, listing or table
fails here.  Runs whose checks test nothing are pinned in test_checks.py
instead: their verdict is "vacuous".
"""

import hashlib

import pytest

from copartitions import cli

GOLDEN = {
    "verify selfconj --amax 2 --mmax 3 --nmax 10": (0, "932234880442acc6c949e3fbdc5316fe6757156fbd6febaaafe8998c3f0a4033"),
    "verify selfconj --amax 2 --mmax 3 --nmax 10 --format json": (0, "64856bc6c07f498d990ed33dc687a5f66e019ceaabe9544518bb970c9730c6e0"),
    "verify parity-gf --amax 2 --mmax 3 --N 150": (0, "1b80d239d8fb867c0c091eda55035c9bc1160623d61fd40c914a836de522f665"),
    "verify parity-gf --amax 2 --mmax 3 --N 150 --format json": (0, "a1ffa8638b93a47761a8437f97a0b29218567f4758abe9057d704e311ec0ee61"),
    "verify eq4 --mmax 6 --N 300": (0, "006f81acb4e7534df61b2faadb75af4e52f89fa28d1d1ef6d5ee42cf88f61745"),
    "verify eq4 --mmax 6 --N 300 --format json": (0, "94ac196029f7f4a708a14a3a0d7e0332b71e52bba874783a13618f001840bc8e"),
    "verify eq4 --a 1 --m 4 --N 400": (0, "404bc56334a55410cd3c0c69a832a4da44d19845e09fc2d7295106a94463eef1"),
    "verify eq4 --a 1 --m 4 --N 400 --format json": (0, "2a69843e4bd510893ca96c025b5fb66c4778dd19043393b299922c38243aae1c"),
    "verify lacunary --N 500": (0, "94ad50992f79d2ce7080a968dafe4bc59ff8cbcd38acdce2ed661c5f1f8ee5ed"),
    "verify lacunary --N 500 --format json": (0, "1bf49a11653c60aa6566ae64002d089fc3b1efd2726c7f558666e54be309cbcb"),
    "verify progression --family cp314 --p 7 --N 3000": (0, "4436947243a9aa8db83ebebd62f3f0058a8a5bea0ef5a34dc289b4dd3299d3e4"),
    "verify progression --family cp314 --p 7 --N 3000 --format json": (0, "fe1a84fb91457b5eba73effcd561180a1d499f638f627d735efdbaa3012a24d4"),
    "verify progression --family cp516 --p 5 --N 20": (0, "7f09069be489f1c72f8861fc6d3a40d1cb739e409c1ac70e56f290c9773d4a4b"),
    "verify progression --family cp516 --p 5 --N 20 --format json": (0, "437069f146d30b0b288b03171bfbf37a1e152ac76a7e1e0e0b961ed4528edc32"),
    "verify lemma13 --Nmax 300": (0, "be60f3a3ca2700ebb93f5050f7f5623b5412f15142c7198e4cf8d2ef8a36623f"),
    "verify lemma13 --Nmax 300 --format json": (0, "0b841b2e3be6fcd3209943f5fa9b1f8e2c1b02e556d646957a19f6133e0ee503"),
    "verify guarantees-314 --N 400 --brute-max 2000": (0, "64aac0a72b955620cec9c55fd357de8c720119e4c9dcae3665cee537ae505155"),
    "verify guarantees-314 --N 400 --brute-max 2000 --format json": (0, "77faebdefa69800d5c1775dececa8d8140580b8e171fe0f52fb4d200354001b7"),
    "verify guarantees-516 --N 300": (0, "d4dd7b718574ef385c69191089f39dfe01dea741288658f8c9b90f211d0de081"),
    "verify guarantees-516 --N 300 --format json": (0, "536f3aa7e6611abfed883058a3eedb549651def8afa933b3759dcf6c589d99ba"),
    "verify guarantees-516 --N 300 --brute-max 1000": (0, "c0e761b334994ba22762fc2fda3b26e9783c93986beea11c937e702548dc0f93"),
    "verify guarantees-516 --N 300 --brute-max 1000 --format json": (0, "de95ccf9a095afcd47df1cd4a72b92cf657e02471aa6c45e005d151c21260628"),
    "verify both-parities --mmax 5 --N 200": (0, "ef2bf4acc206555345345c20b6aba9fdb2214ed4011e2a0e015252b8b27b0b5b"),
    "verify both-parities --mmax 5 --N 200 --format json": (0, "e95a8926ff5848c71a5bdc50e80d8d63d1263daddc5af5f8bcfe2dd43db5de87"),
    "verify both-parities --a 1 --m 2 --N 100 --witness-min 99": (1, "721cecd3a7383c17758329461c6d1e532fffc71fffb95051b5bf9eaf8f03582d"),
    "verify both-parities --a 1 --m 2 --N 100 --witness-min 99 --format json": (1, "af80cacf09d8882d8e8f7b1c8d2d999e90144dc04994cb385d6413ae2a6a69f4"),
    "verify andrews --N 104 --sizes 4,9": (0, "47d36cca1f30610fc40a0c8a83151ca549594daf808e2c642284d471b6fbba9a"),
    "verify andrews --N 104 --sizes 4,9 --format json": (0, "be97d9097546162e639e4bf12288300974a0e5a6f2aa583e4dd8b3e890801618"),
    "verify oracle --amax 2 --bmax 2 --mmax 2 --nmax 10": (0, "b0403a41d3fcc66020cde45a2833cce2b0123e0deb4c470537426e9c15252b9f"),
    "verify oracle --amax 2 --bmax 2 --mmax 2 --nmax 10 --format json": (0, "d6e76c71690e41770d49b607c1e5e40becf3d7bed60f307ea4525781ab663f61"),
    "coeffs 2 1 3 --n 30": (0, "a7ab611240e2909e1c803ebd0f40f93822c461fe6c1c57a08a80ae34b2e48932"),
    "coeffs 2 1 3 --n 30 --format csv": (0, "3bb5069f6e4cb1d6ea4f4d23237f0d36649d889858c8f0130ea55eacf7986d6e"),
    "coeffs 2 1 3 --n 30 --format json": (0, "2ce13946da77ec9c4236e820dc73eb57a83fbabe80f5060bd161499c694d5030"),
    "coeffs 3 1 4 --n 200 --mode parity": (0, "1dda0080dd0b1076e6f60253a45ec40695f86534895fec427101dd2a65a1ed16"),
    "coeffs 3 1 4 --n 200 --mode parity --format csv": (0, "cf147726bb9d2d4b3a7fc336b1774f5393102e8d14aad008978b186c82cd9821"),
    "coeffs 3 1 4 --n 200 --mode parity --format json": (0, "7266500fffc90c613c07d918439d81a6b28a8ab74429969c78b9d55d9584e78d"),
    "enumerate 2 1 3 9 --show-crank --show-conjugate": (0, "598d7230161484ec60df85f8d55b536394039d5d83c2ddc2f749377d1b391305"),
    "enumerate 2 1 3 9 --show-crank --show-conjugate --format csv": (0, "a1d24ab1cbd36ce54a03d6e46e3d34332287f4edea5af0623ee8ab2263e88555"),
    "enumerate 2 1 3 9 --show-crank --show-conjugate --format json": (0, "6bb78e96ac8df64041eaee9bee6fb2426c587b2393f3bed16839e33a7e7fc767"),
    "tables 1 --format csv": (0, "16e4f9786cfdfcdfe2d1779fc2f0fbd6cb8be8c5a94e454dd1e1ffdf252ec8fa"),
    "tables 1 --format json": (0, "a8656ab7b1affad4ea1f3243d69d30105cdd45a11880240d255d67fc0fe3580a"),
    "tables 1": (0, "8464678918277a3e849885cafdc536bf81c1140f7247f556a9dc9785972d814a"),
    "tables 3": (0, "73d4cff134ea38ec75d8239ec6c9fa49fd9a775cb35e033bed7460276fcb4afe"),
    "enumerate 2 1 3 9": (0, "11f745ea19c82ecc27ef5ad3d4b4a211a53166ae514cef9cd6454b650e76bb4c"),
    "enumerate 2 1 3 9 --show-conjugate": (0, "390af25e540a26db970f6d770e27f40694767fcfefa95ce14797ff7462161639"),
    "enumerate 2 2 3 1": (0, "bf22d9341614e23448d92045f9ada00f2d62b00491261ec5843adca20e5a4b3a"),
    "enumerate 2 2 3 1 --show-crank --format csv": (0, "3dca514a41dc1ecfcf7cd0d00b9b6b594154bb43fd172e8e4e8e0322be57a166"),
}


@pytest.mark.parametrize("argv", GOLDEN)
def test_stdout_matches_the_recorded_digest(argv, capsys):
    code = cli.main(argv.split())
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (code, digest) == GOLDEN[argv]
