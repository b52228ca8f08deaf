"""Exception hierarchy shared across the package."""


class SvbsError(Exception):
    """Base class for all package errors."""


class BadConfigError(SvbsError):
    pass


class BadDimensionsError(SvbsError):
    pass


class BadMagicError(SvbsError):
    pass


class TruncatedError(SvbsError):
    def __init__(self, offset: int, message: str = ""):
        self.offset = offset
        super().__init__(message or f"truncated stream at byte offset {offset}")


class UnknownUnitTypeError(SvbsError):
    def __init__(self, value: int, offset: int):
        self.value = value
        self.offset = offset
        super().__init__(f"unknown unit type 0x{value:02x} at byte offset {offset}")


class InvalidStructureError(SvbsError):
    pass


class CorruptRleError(SvbsError):
    pass


class MissingBaseError(SvbsError):
    def __init__(self, frame_index: int):
        self.frame_index = frame_index
        super().__init__(f"base layer missing for frame {frame_index}")


class TooLargeError(SvbsError):
    pass


class BadIndexError(SvbsError):
    pass


class TileMissingError(SvbsError):
    def __init__(self, tile_index: int):
        self.tile_index = tile_index
        super().__init__(f"selected tile {tile_index} absent from input frame")


class EmptyTraceError(SvbsError):
    pass


class BadTraceError(SvbsError):
    """A viewport trace file line that does not hold a valid pose."""


class BadArgsError(SvbsError):
    pass
