"""Pinned sha256 digests of the ``results`` payload of small CLI commands.

Every command runs at ``--seed 7``.  The digests were recorded once and
must never be regenerated: a refactor that changes any reported number,
key or ordering fails here.  The digest is taken over the compact,
key-sorted JSON of ``results`` (timestamps and config live outside it).
"""

import hashlib
import json

import pytest

from spanlab.cli import main

GOLDEN = {
    "sample-wilson": (
        ("sample", "--gen", "complete:6", "--sampler", "wilson", "--trials", "20"),
        "a50f31315b59c1d927f8b1eecc4919a4b41140a29460fe78205098569e24ac05",
    ),
    "sample-ab": (
        ("sample", "--gen", "bipartite:2,4", "--sampler", "ab", "--trials", "20"),
        "79d1e88a821f37ee8394a895509a619e3ee6d7f973e1549b78fd6b92c4fee8b6",
    ),
    "sample-reject": (
        ("sample", "--gen", "bipartite:2,3", "--sampler", "reject", "--trials", "20"),
        "47bfcb7e8bde44240d855072ee96c31fd96a07dd86523103f6441a4808a74e07",
    ),
    "reconfigure-low": (
        ("reconfigure", "--gen", "bipartite:3,40", "--trials", "5", "--dump-selections"),
        "b60295917766f67d2dd8a6c70a1f3bc649ea1785f715c426c0045f10a1a36663",
    ),
    "reconfigure-high": (
        ("reconfigure", "--gen", "regular:16,300", "--trials", "3", "--dump-selections"),
        "b660dddcdf752494935f566098d64a0d799a190e61de88ef1a667da274762512",
    ),
    "pipeline-per-trial": (
        ("experiment", "pipeline", "--gen", "bipartite:3,30", "--trials", "50",
         "--per-trial"),
        "af125b831fd8ffffcc5319ee3db7cf71cd11a3f08bd98a722f9f28059a9e7285",
    ),
    "pipeline-high": (
        ("experiment", "pipeline", "--gen", "regular:16,60", "--trials", "20",
         "--per-trial"),
        "83bc77ae8eb71ec06b70d5334178a472304c8f3e102e440148514427050cf44a",
    ),
    "lemma35": (
        ("experiment", "lemma35", "--gen", "bipartite:3,40", "--trials", "200"),
        "43091d0310bb1b3b579ce5fb7acad1168b8716118a624aac6dabbf407427b326",
    ),
    "leaves-ab": (
        ("experiment", "leaves", "--gen", "complete:6", "--sampler", "ab",
         "--trials", "50"),
        "f207926dc05bd18618e502a626382cd8989dc01aafd7f702e256227e5548c0c6",
    ),
    "conjecture": (
        ("experiment", "conjecture", "--d", "3", "--sizes", "30,60", "--trials", "100"),
        "dfd6c36b5cac39a61bc7bb2d39481903f2fba96de751463aa83c5ff15ad36fe7",
    ),
    "uniformity": (
        ("experiment", "uniformity", "--gen", "complete:4", "--trials", "300"),
        "5b5170d668dec448fedf952a6d7a990139abd0f038dc02fbd5c6e5ae9813fcc3",
    ),
    "count-noniso-sampled": (
        ("count-noniso", "--gen", "complete:6", "--mode", "sampled", "--budget", "100"),
        "6894a96532f5f05c0ee18954033bb1386a9b4525d67f1f4defe3f4cd7b8b8666",
    ),
    "count-exact": (
        ("count-exact", "--gen", "regular:4,12"),
        "a112e1b0807126875cfc1c21f154ff44e36b89df964b0a257340f9dd061a8142",
    ),
    # Vertex 0, the sampler's root, has degree 3 in K_{40,3}: it is a
    # leaf of about half the trees and is selected in some trials.
    "pipeline-root-leaf": (
        ("experiment", "pipeline", "--gen", "bipartite:40,3", "--trials", "200",
         "--per-trial"),
        "90cb055c750cffcb1f8c78ccac60fd9e660d38dc2f84889f153d15fe77794b1a",
    ),
    "reconfigure-root-leaf": (
        ("reconfigure", "--gen", "bipartite:40,3", "--trials", "5", "--dump-selections"),
        "b7f2fbc45e0a3dd753c1494aa999f0c785ba8a08257203ae66f4768706e838a4",
    ),
    # The edge order of every listed tree.
    "enumerate": (
        ("enumerate", "--gen", "complete:4"),
        "a63d84147f0cce235130159e832d5114f4d78e851ea197bdac4808d0968e9305",
    ),
}


def results_digest(capsys, argv) -> str:
    code = main([*argv, "--seed", "7"])
    assert code == 0
    results = json.loads(capsys.readouterr().out)["results"]
    text = json.dumps(results, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_results_digest_is_pinned(name, capsys):
    argv, expected = GOLDEN[name]
    assert results_digest(capsys, argv) == expected
