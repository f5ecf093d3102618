import pytest

from wglab.errors import ConvolutionTooLarge, MemoryBudgetExceeded, require_bytes


class TestRequireBytes:
    def test_a_charge_at_the_budget_is_admitted(self):
        assert require_bytes(2 ** 30, 2 ** 30, "grid", "a grid needs") is None

    def test_message_shape(self):
        with pytest.raises(MemoryBudgetExceeded) as exc:
            require_bytes(3 * 2 ** 29, 2 ** 30, "grid", "a grid of 5 points needs")
        assert exc.value.message == "a grid of 5 points needs 1.5 GiB, over the 1 GiB grid budget"
        assert exc.value.code == "memory-budget"

    def test_error_class(self):
        with pytest.raises(ConvolutionTooLarge, match="over the 4 GiB convolution budget"):
            require_bytes(2 ** 33, 2 ** 32, "convolution", "an FFT needs", ConvolutionTooLarge)
