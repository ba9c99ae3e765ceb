"""Every family's values, blocks and name, pinned bit for bit.

Each case hashes ``repr`` and type of ``oracle._fn(mask)`` for every mask of
the ground set, then the stored block runs and the oracle name.  The digests
were recorded with one hand-written closure per family; the shared value
kernels reproduce them exactly, including the float rounding of every
weight and the order of every sum.
"""

import hashlib

import pytest

from subsens import FunctionSpec, build_function, shipped_default_specs
from subsens.harness import _PROP_UB_GRID, _prop_ub_spec

KERNEL_FAMILIES = ("randgreedy_lb", "curvature_det_lb", "curvature_rand_lb",
                   "near_equality", "greedi_lb", "framework_lb",
                   "avg_randgreedy_lb", "avg_curvature_lb", "avg_greedi_lb",
                   "avg_framework_lb")
EXTRA_C = {0.1, 0.3333}


def _cases():
    cases = {}
    for n in (12, 8):
        for spec in shipped_default_specs(n):
            cases[f"shipped{n}-{spec.family}"] = spec
    # the prop-ub suite's sizes and curvature grid, plus two curvatures off it
    for family, n, k, grid in _PROP_UB_GRID:
        if family not in KERNEL_FAMILIES:
            continue
        if grid == (None,):
            cases[f"grid-{family}"] = _prop_ub_spec(family, n, k, None)
            continue
        for c in sorted(set(grid) | EXTRA_C):
            cases[f"grid-{family}-c{c}"] = _prop_ub_spec(family, n, k, c)
    cases.update({
        "split-head-framework_lb": FunctionSpec("framework_lb", n=12, k=4, c=0.5, j=2),
        "randgreedy_lb-m3": FunctionSpec("randgreedy_lb", n=12, k=3, m=3),
        "avg_randgreedy_lb-m1": FunctionSpec("avg_randgreedy_lb", n=12, k=3, m=1),
        "avg_randgreedy_lb-m3": FunctionSpec("avg_randgreedy_lb", n=12, k=3, m=3),
        "randgreedy_lb-float-scale": FunctionSpec("randgreedy_lb", n=10, k=2, scale=200.5),
        "curvature_det_lb-float-scale": FunctionSpec("curvature_det_lb", n=9, k=4, c=0.3,
                                                     scale=150.25),
        "near_equality-j3": FunctionSpec("near_equality", n=10, c=0.25, i_max=4, j=3),
        "near_equality-eps": FunctionSpec("near_equality", n=9, c=0.7, i_max=3, j=2,
                                          eps=0.05),
        "avg_curvature_lb-m3": FunctionSpec("avg_curvature_lb", n=11, k=5, c=0.6, m=3),
        "avg_greedi_lb-m1": FunctionSpec("avg_greedi_lb", n=10, k=3, c=0.4, m=1),
    })
    return cases


CASES = _cases()


def family_digest(spec):
    oracle = build_function(spec)
    h = hashlib.sha256()
    fn = oracle._fn
    for mask in range(1 << oracle.n):
        v = fn(mask)
        h.update(f"{type(v).__name__}:{v!r};".encode())
    h.update(repr(oracle.blocks).encode())
    h.update(oracle.name.encode())
    return h.hexdigest()


GOLDEN = {
    'avg_curvature_lb-m3': '9833797c08f11905ef7101e78f8132213f81848d15c7564a262bb013ccc410c1',
    'avg_greedi_lb-m1': 'e2d5888d794980aacde4a70030b691426e72a1aaf620af10971883f9059a84af',
    'avg_randgreedy_lb-m1': '35f2cd7e187728e15f63f279a447f1eb6c62664f31b36a28c1a78ccd6ab45519',
    'avg_randgreedy_lb-m3': 'e95c0f40c2557fb25d90bbcd74cf6582e250df67f24264b59907144b9e7c0da7',
    'curvature_det_lb-float-scale': 'b5de42aab5faee91a43b9a2671eef2f439302222e50e2ea3d009d94bc0839e97',
    'grid-avg_curvature_lb-c0.1': '3b5eda7039dd708f5c7a33c76028171023309c4d8d1030a6f14f8b40d307b20c',
    'grid-avg_curvature_lb-c0.25': '5473049581a441c1b0c7b15346a74a35846a7211f5dd58a3274b649e64849904',
    'grid-avg_curvature_lb-c0.3333': 'f2fa24ccea4e3750d77a4acbeda63885d627187da8742a42dfb97c3f033cd0d0',
    'grid-avg_curvature_lb-c0.5': 'b58c5cbb8531940ff080f4e4249f7e5b79dd5c21b15b13530d180f4a020d09c6',
    'grid-avg_curvature_lb-c0.75': 'fa423d3296887e9c3d13d33fca51d43b435e82f7f57c5efbc0419b519fa103c5',
    'grid-avg_curvature_lb-c1.0': 'a605969e233fb399b7be3e2b37de983252c1128c1fa5b4f591de10cb5f4456ed',
    'grid-avg_framework_lb-c0.0': '19a7637c5f1a4566788aaf8a73acd59d4c50129a0fc3c3ce9fbcb17448747e58',
    'grid-avg_framework_lb-c0.1': 'eb2a90098a7a59b893cc814a98fc7ebc9d29c7262d8ef61ba97b6abbf3153d37',
    'grid-avg_framework_lb-c0.25': 'f42d20074479cb757aa60003a37c5c82e7999b47d87e2cb53cdca4ac83e548ac',
    'grid-avg_framework_lb-c0.3333': 'bba2c21f3788dccaaa6e85fe655b74f9cf44005f539e6f313fe6d5c5a2189a9c',
    'grid-avg_framework_lb-c0.5': '920453fe539eaab245a71794637a8697921201224b3c819a2aa4383373b008a2',
    'grid-avg_framework_lb-c0.75': '6dedb37a69b4bddda0f91c492b0c63cf948f78a211315b606e1844225819d337',
    'grid-avg_framework_lb-c1.0': '10a29cc697c2a9aa6e0ad4d88e266f1b187ff25374e600bd3471ef281a3a8fc2',
    'grid-avg_greedi_lb-c0.0': '0fc8f0a61424d8fbb6ed823145e2852c9f20f520a6c13447554e4b6fe9d83141',
    'grid-avg_greedi_lb-c0.1': '8251763b00d5a901d0e16ada44bc2925284f06ad34392cbd97c76a6c8d9e2069',
    'grid-avg_greedi_lb-c0.25': 'e2d84c38e00576368db1ba8ceab474350e5eb94e9151e8c4b9da3ff31d4176ba',
    'grid-avg_greedi_lb-c0.3333': '5620df488cc2adfc480403fa94e70a16f96d925a5abaf81d36d6c5fca3a7bd42',
    'grid-avg_greedi_lb-c0.5': 'b06a1cfc2a930d5398bc0bac2b33ebc68aece70dd5bdce48999fcfa226da474e',
    'grid-avg_greedi_lb-c0.75': 'adb520ecb9aef7d4b101476ef83f5179e3d084980c9dc768f23d5636779e159f',
    'grid-avg_greedi_lb-c1.0': '80f65fcf91b43540071184dbeb5b736297e358278e633f79dc67de62abcbeb47',
    'grid-avg_randgreedy_lb': '0c5c77923ae2977ebd9be5ca391b40d02479c2312852b35e808b0b8b5f284663',
    'grid-curvature_det_lb-c0.0': '09cb949142987a9e0546466ebb59808b82869e0f013e2bb359f0846939ee7256',
    'grid-curvature_det_lb-c0.1': '0c01ba78cc344cb8b481856dbebf186faa302788a7d302eb5e0effc7c33b70b5',
    'grid-curvature_det_lb-c0.25': 'bbdeed7f1882308e6f7c38ab47ff33444b31150e83fe8bd89782bf99cdd53a6b',
    'grid-curvature_det_lb-c0.3333': 'b6192ce2ce4070b0d92807b41194e9bf88226c895c5f86906fdd334c542a5492',
    'grid-curvature_det_lb-c0.5': '50fac73a8e10c4893f4c5516efe2ea4c620abd6445e5a4109f60e0d3f022ed4f',
    'grid-curvature_det_lb-c0.75': '7e07b548ef5b3e4c3c9ecbd6b5442fef4dd22e4d6b8f63a8c47c9659fb1a685d',
    'grid-curvature_det_lb-c1.0': '1005d0dfea8e84d73b462dda6f76d41764fe5d8dec7af74d8881f58d7228df68',
    'grid-curvature_rand_lb-c0.0': '4b0085031522c40a25c9f98f4fbd43145493994819754ebbcb6338730fc69389',
    'grid-curvature_rand_lb-c0.1': '32407849078d91d055d3cd50db1416941fbd5ca969080ae3af013e0251c9a4b0',
    'grid-curvature_rand_lb-c0.25': 'ea9994f1bf9450ed3363c2323fe9a22803bb914a6c7754b659ea8a4c03213143',
    'grid-curvature_rand_lb-c0.3333': '05270d514ded6d2e05d31c4bf37daef852a0ed333783ae240403513d4261757a',
    'grid-curvature_rand_lb-c0.5': 'eb2a3b7e550b79b3e434f4ffd70c9edc9bb1308e613a17edf76aaec5df155cc6',
    'grid-curvature_rand_lb-c0.75': 'b67ccd2afab3c06c5d506a36084a231b6453c7910fd20750a59e4552a022ab6d',
    'grid-curvature_rand_lb-c1.0': '5d80371fd19044cc7c81e62419ded174eb4fa641b2756d92bd49f00e18876f48',
    'grid-framework_lb-c0.0': '73e8e3d23c405c3ab4005a07fe0e5ff1568ef59fa82d5236c1fb15f56698ffa6',
    'grid-framework_lb-c0.1': '1ff67ff1ad6b3a1859b1384bd4184f251a1e55eea235e89fcdd1d01c2876eb36',
    'grid-framework_lb-c0.25': '37ff1615a472685e2d681bd28d4c6bc074d9744eae0fca376170383092472f12',
    'grid-framework_lb-c0.3333': '28082f8ff9163c58c2107a25ccb2ac40919911d22a39e45bc1ff9481e7ac0887',
    'grid-framework_lb-c0.5': 'c52d04d10235db3b02f7f21b4456e2496d84a9afbd55960916913895be2f0207',
    'grid-framework_lb-c0.75': 'd806413d79a44b7636671b66a3dae432a0a88f8e1218ec3f38b864f8d956bd63',
    'grid-framework_lb-c1.0': '86dc348de7c410cc034c5f8d24f352406380e8d6296ebb4c130847543460907c',
    'grid-greedi_lb-c0.0': '5a3507aa1e8ad2a21db9d4df3b545172c7f8fdbc4ad58453a5792eafe33c6ffe',
    'grid-greedi_lb-c0.1': 'cb359ca6c41b8c105d8d6b7d906774602167709b96abaad619e96870f1f9c1a1',
    'grid-greedi_lb-c0.25': '8823325972bf46c6e9a6c4933421f46281f51c4984f8fb7fec01bfef626eaff6',
    'grid-greedi_lb-c0.3333': '7413ebde3711f4dab8a2e7e89101bd70bfecf30411d3df5624ab23f5773e1e42',
    'grid-greedi_lb-c0.5': 'a57fe6ba867ac76472ca9fa31d44b4b1fb823336238e5ee0ae142ec58345421f',
    'grid-greedi_lb-c0.75': '7022ace0e17b49c358646b0d964f3a6ce30a8eef229229179365e4c48d1bab87',
    'grid-greedi_lb-c1.0': '9c41049d2cc22ba8f0e462bb7878b31b9eda2eaa263725c265c2a396695eff5c',
    'grid-near_equality-c0.1': '6c37acc2d62cbcf649d6e44a4ade4733881dac36a0d094f3f630a45d3f43c9c0',
    'grid-near_equality-c0.25': '8970e2ecb00750ef452ff773b05632708b676427be66caa1543cbe2460b94706',
    'grid-near_equality-c0.3333': '02faa0a7b27333e943101da139b69fa6328e992110fe223c80c31e3b5d7083f9',
    'grid-near_equality-c0.5': 'bb3222a4b52708e3f5f487939d71ef6303896f877f457b07d8b72d90d2703da2',
    'grid-near_equality-c0.75': 'ed8f8ae7a821187c9d7618f039cd22e50010bd94294b7887a30391e85526055d',
    'grid-near_equality-c1.0': '8d8fa0dc4a1801075b20a9bced14819fdce766d38ea5c5010031660a74422a79',
    'grid-randgreedy_lb': '2eaf56c655cbf973aef828f556efa1002c51b462046a0e4a729bc14fd91897a1',
    'near_equality-eps': '14c7f2ceaf6c37839d8a70c3f12fcbe73747a69e7486b00b8f64930076b986d9',
    'near_equality-j3': 'c9c7f678983eb1673182e46fc0c1c398c5e7d7b3f880e37c9882a42fd3e9187c',
    'randgreedy_lb-float-scale': '5204d25a252eaf253c24833922074cbef45c97863cf368a09661b5f7312fcba8',
    'randgreedy_lb-m3': '82622d3a0021ba0d612fa2b5762b8127a11990c9306c2b1f85f3b2f9703e1641',
    'shipped12-appendixD_lb': 'd532f461e7045dc593bf3d4983337c36bdd22b2d991bc9eb5761229e9ce05563',
    'shipped12-avg_curvature_lb': 'fadee98eeb52ee7382f1299dcd15046e56d84fb0a3ceabea22df3afe882d60db',
    'shipped12-avg_framework_lb': '8e8614221ce3b43afbb0361b839681ead0f61565a1504453bde10ff7a5f52837',
    'shipped12-avg_greedi_lb': 'cc244f22871400f30005edac3d5c030a977e1556865132f6691cc3301590c935',
    'shipped12-avg_prop_lb': '0fc93afabb62ba5b330d10dbb9e4031af7429896b68ae6349342e8abf14c83a0',
    'shipped12-avg_randgreedy_lb': '112f1bf4700ee2a52b36da31baff17067c3bea46a6eec2f5144c9acab870777b',
    'shipped12-curvature_det_lb': '7821b7316b10853bb1b649215cb539c6e85bb2529ac2bc0d9fd05b91e5d2c073',
    'shipped12-curvature_rand_lb': 'eb2a3b7e550b79b3e434f4ffd70c9edc9bb1308e613a17edf76aaec5df155cc6',
    'shipped12-framework_lb': '60ef2bf711e1f945a2b8c8fca4cd18d2241080197e10725753d226b7cf9b656d',
    'shipped12-greedi_lb': 'ac9e2fd7ac3ce74431fd384795522e28531af9ae8641da5d731d574ffc177e8d',
    'shipped12-large_element': '8d74c48983c8329270f49f28b84c516d9addf9a623316471c43b54c9920fc1aa',
    'shipped12-modular': 'b46bb74154f16bf6c17d4f2c12398d59e35e52cd9fe5b75ddbed31163b2b6cb9',
    'shipped12-near_equality': 'f84768cc2596f1347437047f18a8bcf8b332b85a462221067a3a0fc61510f3fc',
    'shipped12-prop_lb': '579024dcf47b077ada23f063334697c063e9798b1638049133836cb9f1aab54f',
    'shipped12-randgreedy_lb': '2eaf56c655cbf973aef828f556efa1002c51b462046a0e4a729bc14fd91897a1',
    'shipped8-appendixD_lb': '0f4797c6210575123d673635bdd5c72447d24b0f27594a472a2c640267227a30',
    'shipped8-avg_curvature_lb': '0a9c27af2f9fb967bfb3dc39894eed64f21a8decff32627bf65e410984f803be',
    'shipped8-avg_framework_lb': '868bdb87f4a6620ae9400292484aada40659bb9b65e219a36f15ddfa1db26939',
    'shipped8-avg_greedi_lb': 'fa99b5df17d9c8598f11ac15a7d2e00f48df3a396cb778e336afd778854fea0c',
    'shipped8-avg_prop_lb': '47e918723a15da10080fe7b108a69f684346859119f610da1f4ad58813746775',
    'shipped8-avg_randgreedy_lb': 'b4d492858cf43c85618030063d5055c258427e2c2325b2b3038c1f0c0edc0423',
    'shipped8-curvature_det_lb': '7821b7316b10853bb1b649215cb539c6e85bb2529ac2bc0d9fd05b91e5d2c073',
    'shipped8-curvature_rand_lb': 'eb2a3b7e550b79b3e434f4ffd70c9edc9bb1308e613a17edf76aaec5df155cc6',
    'shipped8-framework_lb': 'e8d5d8f39e88bd09bcf4de9e50ba0bfb25cce831a8ed34dfa7a80715b3f394d4',
    'shipped8-greedi_lb': '5e2522de5fd13870529f5226ba175045ac5c3ac76f90d80c6a5285b48af1adf7',
    'shipped8-large_element': '3781452dd560f55b318a29a27c950a7f0f918d8d20b3a7ee00ae5f5e6c2bcbd3',
    'shipped8-modular': 'acd3dc3a288cfa92388203ad81a6fdd181c88e5971dcf9a846d5a6e7d1e6e9a4',
    'shipped8-near_equality': '1b00a491d1df3b6d301b3cb20833fb4c6050dbc8e3f4032f9b2d16d53c3b1ed2',
    'shipped8-prop_lb': '90eec76d15715bb7a1b45e5f9d1b8a4d31debecf03d258bff110341949a79ff4',
    'shipped8-randgreedy_lb': '5ca9cdcf4a57a63aefa97d48bb850dbf7136b0248d5ab9cc048343688807d3e2',
    'split-head-framework_lb': '9df3a001a0c365893baec5c053f5e8167650ca7b1ff1a2e2d1fb560fba994866',
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_family_values_bit_for_bit(case):
    assert family_digest(CASES[case]) == GOLDEN[case]
