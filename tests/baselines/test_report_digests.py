"""Golden digests of every policy's report on the tiny suite.

Simulation is deterministic in ``(workload, config, policy, faults)``;
these pins make any change that alters a report fail loudly.  A
refactor of the policies (for instance sharing one contents model or
one profile-and-resize path between the baselines) must leave every
digest as is.

The digest is the sha256 of ``SimulationReport.to_json()`` dumped as
JSON with sorted keys.  ``python tests/baselines/test_report_digests.py``
prints the current values in the layout of the tables below.
"""

import hashlib
import json

import pytest

from repro.baselines import HostJigsawPolicy, host_config
from repro.experiments.runner import POLICIES
from repro.faults import FaultSchedule, UnitFailure
from repro.sim import SimulationEngine
from repro.sim.params import tiny
from repro.workloads import SUITE, TINY, build

# Every fault leg completes; unit 3 dies before the second epoch.
UNIT_FAILURE = FaultSchedule((UnitFailure(epoch=1, unit=3),), seed=1)

TINY_DIGESTS = {
    "recsys": {
        "jigsaw": "0f5df052e539655ab0a51b695680960b2ede8e64fffb5b290b5cba74ff1f8bc5",
        "whirlpool": "c4de42a49a18f2f906511c01371636901138b02948abaf972a5c70c06bb9d989",
        "nexus": "2880f7d4152051cdee19a43d25e68e46570118dd756cc1d9e0b5eef239f063a0",
        "ndpext-static": "591755aca78eb363b1186d9cc1c9f2dc66cef28f901b0ad4f2492b9c3c099d59",
        "ndpext": "443b538eb331957ee10bb4010df76bd17a252cbdf5d3bba39d46c7759200d9ce",
        "static-nuca": "a1fd9651e9f27c8485a2920b1768b175de055722773d30383eac976ac68dee7b",
        "host": "4f510794ac78d73c0172716e64f87ebc41bc3e27759533217efa40fb6ccecd56",
    },
    "mv": {
        "jigsaw": "1f2b498396c180f0fb60d2a423ddfbb0a961dd087b178e842a8f8d77042c4c88",
        "whirlpool": "251e1008ac2c58a65bfde90a8d41741ae9c57fbe69da9ee401a7ee04c9857c26",
        "nexus": "ccc217f7a1cf5577dadcac6affd05c0fe8d1135ef23db4f899d01469752ca9a1",
        "ndpext-static": "61d332c3ae9c9acecc956ec6810d209685c6b9f9e69310d9058cb56bad64222e",
        "ndpext": "88ce3023f8edd29ab0da8184a125bf5a7838c51e39ee321a55c432c70abbed2f",
        "static-nuca": "66d6fb18dd41664886aa28d844e48a7165cc913bb4c28d54faca9ec04ef6fdb8",
        "host": "eabce1fb1a984f921b9fb101cbe088960a05cc2a094b6f6de475ce433547d29a",
    },
    "gnn": {
        "jigsaw": "092bdca55397e72975cb77529a105f36692d92c20e6e3bae3bbea114fce25bcb",
        "whirlpool": "2781b740b61f616ff453ce3d1c489aa8c45113bb6eb272cc357a7e806b6f7a9c",
        "nexus": "ffd9264da2960d546cf7cd5457207fc2d5ccf4262ac322fcc74ce7eac7614d96",
        "ndpext-static": "a0c99243e66e52807c05a4607a26ca171adb01c01f19ca7ab4349fefc8be6af1",
        "ndpext": "5f031995ab6c258edb91be7d15eab8307129494f9299b45be1576602620ddbc2",
        "static-nuca": "51a3733ffdaf0c88a04d2b50da639728a82493679648b4428832dab43bd14307",
        "host": "77edb02723583640a054e7d3c611311bdf97361dfd59bc2f647bfd002af27be5",
    },
    "backprop": {
        "jigsaw": "7ea2fc6b01bfc655606aa2022335a78b89d94d35199206ba3b2273cb6df4d507",
        "whirlpool": "7aab06d5047e5a289032e3016f2283b48e7fde515f5a0ecd78d0bda09c4c9588",
        "nexus": "f5fca33e1abf84c7efa11ca12af124b980d7ee0397affa64e3e3c7e6fd3698fe",
        "ndpext-static": "55b3660ca2e8e7600135b49fcdffcb53463d7e9f2e9609ae8cafbaa4db762087",
        "ndpext": "b715ce3de298a89475794cfb44989cc7d49d4373da40e58dd5194e11e7e3151e",
        "static-nuca": "8eff0013b60fdf5afe402deadf0da9f90b05a986088b8935741cc63a35c73e99",
        "host": "b24a5015d5151b0d7d1b3bc1a700a7739a72189b7a56f702462a2b080e0e9abf",
    },
    "hotspot": {
        "jigsaw": "bfe7493c5767c4780b919bc4a40b671fc456f174538c55363f27da9e2f415395",
        "whirlpool": "2bba88c80ca428ab2fe90aabd808fb4fb20bcd13907eae41194d243af529235a",
        "nexus": "fc4cec7883cb8c946cc1aebb8b882ae8a29f8e68e756beb7dd040613f18e1a46",
        "ndpext-static": "8712ce9ef7f12790d5dd1f96d33f7fbfd9d5257cda81e07ff4143b47645215a3",
        "ndpext": "adf773caf731bc0e5c8d4652240a7a07c980cd26b583d2a5187f8553deb63a58",
        "static-nuca": "f680e8bdf65958b93eda1d346441b15dcd9785307b30ae216c30acea6033f8a4",
        "host": "928093bbe6b7a043387bedffe0f52d96bc75fa0e0cc7d9c0ee1ed34f68767520",
    },
    "lavaMD": {
        "jigsaw": "e01f974b55c7920adf109af0de7d4c0a9e68a88d3da9c61fc0af8f678b8d6207",
        "whirlpool": "666d4b5e4524dd3a3db62cddb6d8b2645720b42c73d80a1d9467fdc32e579fac",
        "nexus": "b3aa07c70bda7d31962db2fb7f59a5a082c981bfd1faced36d1db8361e65b212",
        "ndpext-static": "185d55687f5fafd7b2b3cba940fa2c9b0f37f235c47e888943e9051a0c03f752",
        "ndpext": "7c98c8ad6cf21842551f85207eef30766b84de3fd05fe83bd1ca21caaea065c5",
        "static-nuca": "85a10d2653ca0643da72fc299938943013a322a2e31f77fc14d0fb630c12b1c1",
        "host": "16d967e33bb953b068aaa3a1dd82b45f46c1bd64071e970ecdf993eb5568b79c",
    },
    "lud": {
        "jigsaw": "b69b29fa6bb26bf4de196038572f82dcab3cbe740a0f3bf8dc9e2caabf9daaeb",
        "whirlpool": "d3d1e8d4805170dfd5f2842496a748ff12a6adbc8fa8e8e18f25a9ed0a650d40",
        "nexus": "48717b6cbde68050b6f1504db3dfcd067e5f3284ee5eee29f5c6e0614c819a58",
        "ndpext-static": "815cabefd229470fd89e04cf043d32042dd72a195b359cba05afd8968af15bca",
        "ndpext": "14de2edf125e25d38bb5264b2bdd0363b6155325ffe96e8132e1f9e660907891",
        "static-nuca": "876d4130297081fe3c11900f15845270b93c74abf53da9fe64e4b3010226902b",
        "host": "8c95c530bf85cc449db52d6dd27b8da0111362a663a2ae7e59f2eac85d7233d9",
    },
    "pathfinder": {
        "jigsaw": "0191360c75fee1bc7ab8508601915b0bd7183830cb14be0f56f761ec6ec35279",
        "whirlpool": "1b99e09386a7941feb01546664e532da5821559b14474f2d5234becb594892fd",
        "nexus": "073b43f7b7f3bf1a77236ba3d59122e229bf77c63cccaa6b96af79c927778e09",
        "ndpext-static": "8c4657ee8232ba9ce0899bbd2064d00b939063bcaf539e2ae2b54b279e8c2834",
        "ndpext": "b47b89b3a728f76c545898019e1f274241030f7c501508a3bddacef2791842cd",
        "static-nuca": "f048ca415726410a2565fa7d347b5dcf7e4c78fd131d8ab5691673cd3d1cb4a7",
        "host": "4e4968057f3fef30beaddf12832d14d8f700310893bfff03aac9c3011a3b9a42",
    },
    "bfs": {
        "jigsaw": "d13c47cd276ce2b3bdced9417cee2589fea7d6cc2f8799e806ceb65eac4012e5",
        "whirlpool": "7c12b52920fbb3f5816f8f57642cef799c65bf5bfb848ce67720f6075a51667f",
        "nexus": "fce790f44c1a189a6e3e2d8b2df0a062277d2e3fda68de6daf51b665613376eb",
        "ndpext-static": "d059027360013740222ed553fb0f512821bb0e3cac073dbaeaf2050d8fae168a",
        "ndpext": "ffdbcdef20667a665c590816eae84671f8f5e86c9ca3ac675f403275df9155a8",
        "static-nuca": "90fdb6b707e41e6b0948c84e5f7e12fe594cc78095558676cb0845cdd360b2b5",
        "host": "27c670818885c0bc8df50512874196fe8ec749de9aaece2db7809023d0a03c69",
    },
    "pr": {
        "jigsaw": "8c30f628ae8222ff1087d3bd37277a3398937ada0f9e4323d4714ad6e0267958",
        "whirlpool": "4d55290e5b8984ac4d8b22f41957d972b548db26151737931ae09cf1583d28ca",
        "nexus": "297ab4bc701031a6810f25bdc379c4749201dfe1d03849d0e6cba642c3abc9b2",
        "ndpext-static": "22e76d108e1039e8c98953124ada3f3b2cb509a783bd924b036a5b0fa5671c3d",
        "ndpext": "5fe911af2056651f3cb9a3d39ab35bdf51dca87c75a248e1199ee3f2edfa6380",
        "static-nuca": "728e945e59db0d367cb9d28eaf7bdb194ce736f40fe308498696e9707f7cb81e",
        "host": "62b8a782fc7321d55824a0a595d221f836070eab751a8ffa33924986f154ea62",
    },
    "cc": {
        "jigsaw": "85209391b84355eb43095e803e0315b27570581675d8b46876b09fc6bb0f5699",
        "whirlpool": "0bb323e6ed0d0e9d909291182d831ef923fe004a87b2ff7ffab44abfe7535ab3",
        "nexus": "49c5f27774e1dce8fa466a49ad54be6023c64d96fa2c460252c76277ffa32dd0",
        "ndpext-static": "b42996c96d7380f760094cbfadcb89e42ec1ccb07d37585193a8c1be360d29b6",
        "ndpext": "87e16acaeb354a79822063a84410c53e95439944449e1f16e5c5267e58b82928",
        "static-nuca": "aa670be81033ebca76b6e4ee78b7eb292f9eefd98c6abf33f75ef07b6703a03e",
        "host": "659c4af9e070de785d78750b6e754baa7188da4aad5122030b43fe6f0eb9b4ed",
    },
    "bc": {
        "jigsaw": "1e5f96fe9168ce61863f51404134edd12af00ffae0e7a6618b968119fa72047c",
        "whirlpool": "3c1c4742ebf5da900d9894f7447524f52f0735011626a480952e56f34f46971c",
        "nexus": "b4757df454c1498f83a0e30921d7d4daa7b11c9c998c32c497afe5e1397cc9bc",
        "ndpext-static": "a2d9067d6268ebd64e41d5bda8e2dfe0723a2a744e7e8faca6f5c5114e8f752b",
        "ndpext": "5f33856307e30882547c228034745f66f410c967f6b7ab7185d52dd97e8ceb9e",
        "static-nuca": "ca7da32e7d7c3de7d034a580c0b96865212687732c45a3396de1be131cf49265",
        "host": "9bbdc699e4e465a7a0eb6a1f7be77fb21851d57bff85fb7f708747b08a4aeea6",
    },
    "tc": {
        "jigsaw": "5a0608fe25c5d3e41be36041a5a8773b5e906048a1bbbe484ad18700c54242d4",
        "whirlpool": "702ca800bf56bdd816a04126de29fc3e4e8c23938b5db7cecacefa0f03582002",
        "nexus": "b8f7110aae4965be673e5a9b260786dfde8b308e5b2c7cdb898f1eb91c845023",
        "ndpext-static": "a35cb9f6c648df0962b7f5a9afab52f1034a0af78cd576c07f6d7596a2497c00",
        "ndpext": "ccf41ae12116d9b83c92bfc3a8dc6a6cace2949fc21354c603f564dbed45fa96",
        "static-nuca": "4b9f8e5a3f4811f74e0a1a855b536fd04bec588ee937c8b02dafc99c13837b4c",
        "host": "b71f389e724d7bbe1dfff4ac2b40b7a304c22f9b7f899fd60c3ff36623a7725e",
    },
}

UNIT_FAILURE_DIGESTS = {
    "recsys": {
        "jigsaw": "0252fcfd65d7e3d94a4899e6f9f815466f83387291109197033cc4732a78b388",
        "whirlpool": "066667316c429c085f80bde31ed58644fea5c41928e9335d04b3570be2e591d1",
        "nexus": "9b21056254f8025ee1262fe945eb79b1435c302434824eefd403a33500c0a5d5",
        "ndpext-static": "de88b2b41d809283c689938a77ec797eaf14341315fea7f35cc44de70accd4b5",
        "ndpext": "ac72ea797d348699edb260eb4adea75ef26b5c663a6767e476a39e70cd78f2dc",
        "static-nuca": "4ee79b31de2be24676efc8e39d6a5934fa5286a2c7a2bcb2ce9de38919090203",
    },
    "mv": {
        "jigsaw": "837f6667bf36e252695f24c2bb09f68d9c39952859e55c2dcb8def6ec7464e60",
        "whirlpool": "41edae50b5d1d456c8ba269d9616cc47c15f63b1221d3809da25d77d14cd392e",
        "nexus": "1681ea9c1253ad102f9c7f7a44487bfffc68bb0b170a5c74091fdd970fc044a7",
        "ndpext-static": "abd2d95669ad6c325c63c72d91f236dad9d21d18d9283add39c9f9f15e43d5a9",
        "ndpext": "dd3c1f2be9ed05cf2cbbdbb28b5d49818436a0271ec5f764ee9cc35a2d5794c0",
        "static-nuca": "1c2672e6e6ce464d866c640851aa1cff14eac549e8187460777c39846cd2dc89",
    },
    "gnn": {
        "jigsaw": "7db59cbdbce144b92df20a04db72098dd3106667aba21ad7240bd9ed5c10d9d2",
        "whirlpool": "2762aa4acfb6ed13d0d908af4bd376ed79c7b604ec7730ef424186ee436b8b93",
        "nexus": "4eb10efba8b13f36e255c5d837771e39411f2d309dbc01c94a9bd566def80d44",
        "ndpext-static": "1cfcb46967be4f3a7e1c73f62563aee692adc5ac48c3687c45430998c26c745c",
        "ndpext": "46a9c177a7cb4ad8efdf0284d4fc2f897bdc28f57feb91c0eda35908a1dd50d4",
        "static-nuca": "83a89acb51ca05b63dedc612327503a61e8f157ba41cb218823079cc576875aa",
    },
    "backprop": {
        "jigsaw": "ac467b15cb4dc61dfc7b6de93c059e3970486946993c8976b60c37abde3ce248",
        "whirlpool": "79b4a4710ec29ea8c41b15992d21e724e8ff5de38782cdb689370053544695f1",
        "nexus": "51dc519203c591d52b9d0e8b361c18ff7dbd31de9dd0951ad04ea52c0968a488",
        "ndpext-static": "2b5f57650008148f39f24fa5f4373ca229ec76535ce555836a5c867c9e6d9165",
        "ndpext": "6a2b48f467af7b0a8f0d7adbd84f66073e732a2054e2dcceaf3652e32f3d0b62",
        "static-nuca": "ec2e6df5dd8ce2ac2d1d117292794d9101b2d84a017e3591e05b16c01efb9c75",
    },
    "hotspot": {
        "jigsaw": "7d2687a90f4944e834a5330c59e5a13e91e883046e6b93a45b6e02da9c6a0e2a",
        "whirlpool": "aa2cdcfa20985a11a46acddca1d14320197d38362eb28cfb933758f951f58554",
        "nexus": "58546c999fe8d186af0a8aad03fab5d2ef27becdf1f64357dfef48fd442b3377",
        "ndpext-static": "7c37a425d4516834ef3aa1e6af3b5b7c4960fdbda3d3f0fb8290507e07aaebb6",
        "ndpext": "109944f7ccae4110a93f8bc43a7d44921759150a6342bf213a4caf602a2cdc03",
        "static-nuca": "c15de4e55adc9cb3adeac863e0c1506df5bdfe414ecce6afa1be907b54b584f6",
    },
    "lavaMD": {
        "jigsaw": "9f092cd3dae6cbd598d1438036e9a528e1a3cba197c4daaab176d55e9e6d70cb",
        "whirlpool": "d90ed71bdb952732cbf9037181dd6f6cc8e7d71bef26c1cf570dbb525721a762",
        "nexus": "56399b9a6a8e7b7867041446fd2adffc64579ab5a7c5ad669f93357285ec5eb3",
        "ndpext-static": "a0592bcd93d52540cd86eef0b257a05c01566127dcbb3908e297843564e80230",
        "ndpext": "27f1fa0efa8082a53a72a2e0d50aa3d80e59c1cee3adf4cfcbfa6af97895a927",
        "static-nuca": "f6c6567c4b9706ab8c98c5af2e3a83e31188341d105a8ad81e30484a6a4abb2b",
    },
    "lud": {
        "jigsaw": "b6d6d98cda7fed1bad5c0e9a5a739612275be3d4cb633469937d96e4409cac41",
        "whirlpool": "fdc423bed071bb0924eee8b2064665cc6e61898f15a89833c876a0f78067cd52",
        "nexus": "8440458e6cffcb9bfd370278809c689a6506762d665dbf63e8fecd20981c4dd4",
        "ndpext-static": "0f865323bb4f49d823634a1735380c0933f221ee8bcde8ddde85c39e2d82bd92",
        "ndpext": "2fcbcf782188a2cb4fba6470f617b8d2b4b93b528677739626dd6a0f5966aeaa",
        "static-nuca": "c43708226e310064a8d33ed2900f1d4b072035fc0d29563194c10fce9acc737c",
    },
    "pathfinder": {
        "jigsaw": "c5d2170b6fd9ab231592584797bb028a7ad50c424febc46b53b7b2816fe00d95",
        "whirlpool": "52435f99dc3a9f46c832adb1a33691d1233882c5ac2a9ee2c7176dd5684b4f1a",
        "nexus": "e6e709641b9848ed23e7316476d44a4c5c36a8ad130ab38c2ee23bdee9e3936d",
        "ndpext-static": "e84b4779b3334dad35b8a94d05c7d7b4dd751b0dece38be3e200803102b8cd22",
        "ndpext": "22b3ed4e89d298367edbb5e8666a77958a98ebdc3ac39e3edcbec1bcc3b11e8a",
        "static-nuca": "bec84c9333d5a74a1b07b310c4ca365b452b18077f1ae9203bd70c9167917caa",
    },
    "bfs": {
        "jigsaw": "d0906c308ee726450e669e4f7fe81c64050a3afed0464ba12c43df3adb559e51",
        "whirlpool": "6131e144137933d025a95107c3f167a95e7918c868430173a6ac04a31a3f2ddb",
        "nexus": "d2865c1763031ecf882fffae3502d37425911ea80c79cd2c6be87c2179f406b6",
        "ndpext-static": "0369adb71a537f50e0c0c9064dcf8c67881cb63ec3bbc8469a043987bfe6455e",
        "ndpext": "9ca8a403f967c7f90438b90842923f0744f6c04fc94cde85c00eef52e89ddf04",
        "static-nuca": "4727c9831de3396f441a0cb4d03333e89ce05a10b472bbf9bf56add49373115e",
    },
    "pr": {
        "jigsaw": "7a8542ef90900f7d12f161d8a4d3c16975fdb765d4be7c9636574c247874f92b",
        "whirlpool": "c1ad46283bcdef71b19f8256a7c259e5d64444806e6747bdfcf89f9906f2678d",
        "nexus": "aa62ef461e5404fabfd04e99eaaac3007cb1f3f03f145ce0f7fe9a538da4054e",
        "ndpext-static": "56ffde34e1607fb4ee56e7b903af376f1787d16ab112fc4454e3f6c33ef01731",
        "ndpext": "313f9d55a4d7fa7256d820c8ed82488de281ce52ae7b25ad4c1d9454013753f5",
        "static-nuca": "6bbe6ded8b52c26998401e97d5cf2e115b3f2dadeecf1900f87b658c07f3e513",
    },
    "cc": {
        "jigsaw": "fc9606a22387da8f30ba29c1967d94a6ec5b7e2825680111b281a0223ab8f990",
        "whirlpool": "1e44a5415b5f0c28017655917f92fb37f11d60c202a71bd30e5be5528c15a5fa",
        "nexus": "3c09c9922550000fd9d80638a8acc3c810607ff89491af68c34c4a7fcadc38f8",
        "ndpext-static": "f25aae7802a7ad618eb9c1b96da2b06db645fd2c5ee2b636161868d8d1676e54",
        "ndpext": "5a1ff71e910b296f1643184144661d60b7af54c55df11bcbf3cf38dc0a43d6db",
        "static-nuca": "965e195abd3ace8ad36d80d75b1481cd34e88f46895572b35774ff07f70bcf86",
    },
    "bc": {
        "jigsaw": "f94709630a0c5d136565df95104ae8390ec5cec8bec7b82f977db2fd845217b2",
        "whirlpool": "698df6e2a971730c076ef0c1c94ac9f367661e2ef6dc0d5774ac59d9d49507e1",
        "nexus": "e801ffcc0b922a92da01bcc6d6dec9e014c6f900e43dfe71c00993cea65fb6ea",
        "ndpext-static": "660c5a64b5404d2f0d84f43cce70016e89c013dd4ab821a09ba4f6d07804b1aa",
        "ndpext": "7942c9cce363afcca0c26416c94a67b7edc0f483f3ca1bd472c557e4353a398e",
        "static-nuca": "0d224c73a7b299804dc0dd66e80d98c128df58af5a03417b367c19e1ea5d7b94",
    },
    "tc": {
        "jigsaw": "871a6e3caea5fda9d47aeb9e5d06de2d614055affa464a8bd85d89f1dc299815",
        "whirlpool": "a46a5c44fae07edf87967eeecf823cb32cb1ce2f928b4c13d88f39b8623bbf9e",
        "nexus": "4b1e8f3f2689ebe3934186ad7c3ef02ee489bce25ce0b4838a6d958e14327db8",
        "ndpext-static": "1d303da9d488f510c40d54133c95c373ba60fe68c346c23d332c02d189011c3f",
        "ndpext": "4c1e4bc4cfbbbe1e482159d92c2ca93da69bbbaac0b9ac771ed7a998bd589a1d",
        "static-nuca": "63a36acbbd0921b9c69839553d7f3b927a543482ec0a717e9c2b45e89efbcee9",
    },
}


def report_digest(report) -> str:
    payload = json.dumps(report.to_json(), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def tiny_digests(name: str) -> dict[str, str]:
    """Every ``POLICIES`` entry plus the host on one workload."""
    workload = build(name, TINY)
    out = {
        policy: report_digest(SimulationEngine(tiny()).run(workload, factory()))
        for policy, factory in POLICIES.items()
    }
    out["host"] = report_digest(
        SimulationEngine(host_config(tiny())).run(workload, HostJigsawPolicy())
    )
    return out


def unit_failure_digests(name: str) -> dict[str, str]:
    workload = build(name, TINY)
    return {
        policy: report_digest(
            SimulationEngine(tiny(), faults=UNIT_FAILURE).run(workload, factory())
        )
        for policy, factory in POLICIES.items()
    }


@pytest.fixture(autouse=True)
def _generate_cold(monkeypatch):
    # Bypass the trace cache so every test runs the generator itself.
    monkeypatch.setenv("REPRO_DISK_CACHE", "0")


def test_every_suite_workload_is_pinned():
    assert set(TINY_DIGESTS) == set(SUITE)
    assert set(UNIT_FAILURE_DIGESTS) == set(SUITE)


@pytest.mark.parametrize("name", SUITE)
def test_tiny_report_digests(name):
    assert tiny_digests(name) == TINY_DIGESTS[name]


@pytest.mark.parametrize("name", SUITE)
def test_unit_failure_report_digests(name):
    assert unit_failure_digests(name) == UNIT_FAILURE_DIGESTS[name]


if __name__ == "__main__":
    for title, fn in (
        ("TINY_DIGESTS", tiny_digests),
        ("UNIT_FAILURE_DIGESTS", unit_failure_digests),
    ):
        print(f"{title} = {{")
        for name in SUITE:
            print(f"    {name!r}: {{")
            for policy, digest in fn(name).items():
                print(f"        {policy!r}: {digest!r},")
            print("    },")
        print("}")
