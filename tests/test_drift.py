"""Plan documents, the complexity table and the adder histograms stay fixed.

Each hash pins a whole family of outputs of plan generation and the cost
model; any change to the block templates, the layout or the adder rules
shows up here.
"""

import hashlib

from minfilt import count_proposed, generate_plan, plan_to_json
from minfilt.cli import main


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_plan_documents_m1_to_64():
    text = "\n".join(plan_to_json(generate_plan(m)) for m in range(1, 65))
    assert sha256(text) == "3c2aa0c62e3895c062f7e72dcff21c5d0e73671aa4fdda34a4a36f5e530e978c"


def test_table_m1_to_64(capsys):
    assert main(["table", "-m", ",".join(str(m) for m in range(1, 65))]) == 0
    out = capsys.readouterr().out
    assert sha256(out) == "d81b668d91b8e3226464179ef28ae857c86b6b62e3636b6bde270dc5e1674395"


def test_adder_histograms_m1_to_200():
    hists = [sorted(count_proposed(generate_plan(m)).adders.items()) for m in range(1, 201)]
    assert sha256(repr(hists)) == "f166e478be21728e8a6220d92d9373e9020a8501672e8e92a9b87c8dd70d51f1"
